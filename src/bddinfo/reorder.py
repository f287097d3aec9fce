"""Variable reordering: entropy-guided greedy search plus the classic
sifting and window-permutation baselines.

All three are search loops over adjacent level swaps on a live
manager (``BddManager.move_var``), run by one driver, ``_run``, that
returns a ReorderTrace.  The driver sweeps garbage once on entry;
swaps then retire every node they orphan, so every size is
``len(manager)``: the shared node count of all registered roots.  Each
call ends with a mandatory check that every registered root still
computes the function imaged on entry; a call that raises changes
nothing.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

# perfbench/tracer.py wraps copy_function and conditional_entropy_var here.
from .manager import BddManager, BddError, UsageError, _entries, copy_function
from .measures import VarProbabilities, _check_weights, conditional_entropy_var
from . import measures, oracle

_TIE_TOL = 1e-12
_EXHAUSTIVE_CHECK_VARS = 10


@dataclass
class TraceStep:
    """One decision of a reordering run.

    For the entropy-guided method, ``scores`` holds every candidate's
    conditional entropy in bits and ``level`` is the level being filled.
    For sifting, ``level`` is the chosen variable's final position and
    the single score is the best node count seen.  Window steps record
    the window start and the node count after an improving permutation.
    """

    level: int
    scores: list[tuple[int, float]]
    chosen: int | None
    tie: bool
    size_after: int


@dataclass
class ReorderTrace:
    method: str
    initial_order: list[int]
    final_order: list[int]
    initial_size: int
    final_size: int
    steps: list[TraceStep] = field(default_factory=list)
    elapsed: float = 0.0
    swaps: int = 0          # adjacent level swaps made by the run


def _run(method: str, manager: BddManager, roots: Iterable[int] | None,
         search: Callable[[list[int]], Iterator[TraceStep]]) -> ReorderTrace:
    """The plumbing every reorderer shares around its ``search``.

    One snapshot of the manager is taken on entry.  Explicit ``roots``
    are registered (each once), then garbage is swept once.  ``search``
    is called with the explicit roots (default: the registered ones),
    and the trace is built from its steps.  The check takes one image of
    every registered root on entry and compares it once on exit, raising
    BddError if a function changed: truth tables up to
    _EXHAUSTIVE_CHECK_VARS variables; above that the roots themselves,
    in a ``clone()`` taken on entry, against the final roots rebuilt
    inside it.  The clone keeps the initial order and is the check's own
    scratch copy with no ``node_limit``, so the check builds nothing in
    ``manager`` and fails only on a changed function.  Any exception,
    from a refused root to an interrupt, restores the snapshot before it
    propagates: a reorder returns a checked trace or changes nothing.
    """
    t0 = time.perf_counter()
    roots = list(manager.registered_roots if roots is None
                 else _entries(roots, UsageError, "roots"))
    state = manager._snapshot()
    try:
        registered = set(manager.registered_roots)
        for r in roots:
            manager._check(r)           # before hashing: a list is no handle
            if r not in registered:
                registered.add(manager.register_root(r))
        manager.collect_garbage()
        kept = list(manager.registered_roots)
        if manager.n <= _EXHAUSTIVE_CHECK_VARS:
            def image() -> list:
                return [oracle.enumerate_bdd(manager, r).bits for r in kept]
            entry = image()
        else:
            # Both managers are canonical and share every handle live at
            # the copy, which mints from its own range, so the rebuild
            # returns r exactly when r's function is unchanged.
            scratch = manager.clone()
            scratch.node_limit = None

            def image() -> list:
                memo: dict[int, int] = {}
                return [copy_function(manager, r, scratch, memo) for r in kept]
            entry = kept
        order, size, swaps = list(manager.order), len(manager), manager._swaps
        steps = list(search(roots))
        if image() != entry:
            raise BddError("reordering changed a root's function")
        return ReorderTrace(method=method, initial_order=order,
                            final_order=list(manager.order), initial_size=size,
                            final_size=len(manager), steps=steps,
                            elapsed=time.perf_counter() - t0,
                            swaps=manager._swaps - swaps)
    except BaseException:
        manager._restore(state)
        raise


def info_reorder(manager: BddManager, roots: Iterable[int] | None = None,
                 weights: VarProbabilities | None = None) -> ReorderTrace:
    """Greedy entropy-directed reordering.

    Level by level, every still-unplaced variable is scored by the
    conditional entropy of the outputs given the already placed prefix
    plus that variable, from one ``measures._conditioned`` call on
    queries built by ``measures._query``, as ``conditional_entropy_set``
    builds them; the minimizer (smallest variable id on ties) is moved
    to the level through adjacent swaps.  ``roots`` (default: the
    registered roots) are registered; sizes count every registered root.

    Each root's frontier, the path masses the placed prefix hands to
    the nodes below it, is carried from level to level: once the chosen
    variable is on the level, the frontier is pushed through its nodes
    in handle order.  Moving a variable to level L swaps only levels L
    and below, and every node keeps its handle and its function, so the
    prefix and the masses it hands down stay as they were.  The masses
    are added in the order a push from the root adds them, so every
    score is the float ``conditional_entropy_set`` gives.
    """
    w = _check_weights(manager.n, weights)

    def search(roots: list[int]) -> Iterator[TraceStep]:
        reaches = [{root: 1.0} for root in roots]
        for level in range(manager.n):
            placed = set(manager.order[:level])
            candidates = sorted(manager.order[level:])
            queries = [measures._query(manager, placed | {var})
                       for var in candidates]
            # The unique tables hold only live nodes (the driver sweeps on
            # entry and swaps retire what they orphan), so they give the
            # level order without a walk.
            order = [u for var in manager._level_var[level:]
                     for u in sorted(manager._unique[var].values())]
            values, _ = measures._conditioned(manager, reaches, queries, w, order)
            scored = list(zip(candidates, values))
            best = min(score for _, score in scored)
            group = [var for var, score in scored if score <= best + _TIE_TOL]
            chosen = min(group)
            manager.move_var(chosen, level)
            part = sorted(manager._unique[chosen].values())
            for reach in reaches:
                measures._top_down(manager, reach, part, w._pairs)
            yield TraceStep(level=level, scores=scored, chosen=chosen,
                            tie=len(group) > 1, size_after=len(manager))

    return _run("info", manager, roots, search)


def sift(manager: BddManager, roots: Iterable[int] | None = None) -> ReorderTrace:
    """Rudell-style sifting: move each variable through every level and
    park it where the shared node count is smallest.  Variables are
    processed by decreasing node population; the total size never ends
    up above its starting value.  ``roots`` (default: the registered
    roots) are registered; sizes count every registered root.

    A variable first moves towards the nearer end, then towards the
    other one, and stops moving in a direction once an exact lower
    bound reaches the best size seen (Drechsler & Guenther, DAC 1999).
    While it moves up, the levels below it keep their nodes (moving
    down, the levels above), and each variable on the levels it can
    still reach keeps at least one node if a root depends on it; the
    tables hold only live nodes, since the driver sweeps on entry and
    swaps retire what they orphan.  No skipped position could be
    strictly smaller, and ties never move the parked position, so the
    result and every step are those of the full sweep."""

    def search(roots: list[int]) -> Iterator[TraceStep]:
        n = manager.n
        unique = manager._unique
        population = [len(table) for table in unique]
        priority = sorted(range(n), key=lambda var: (-population[var], var))
        for var in priority:
            pos = manager.level_of_var(var)
            best_size = len(manager)
            best_pos = pos
            for step in (-1, 1) if pos <= n - 1 - pos else (1, -1):
                while 0 <= pos + step < n:
                    # Lower bound on every size further this way: levels
                    # out of reach keep their nodes, and each variable in
                    # reach keeps one if it has any.
                    order = manager.order
                    reach = order[:pos + 1] if step < 0 else order[pos:]
                    excess = sum(len(unique[v]) - 1 for v in reach if unique[v])
                    if len(manager) - excess >= best_size:
                        break
                    pos += step
                    manager.move_var(var, pos)      # one adjacent swap
                    size = len(manager)
                    if size < best_size:
                        best_size = size
                        best_pos = pos
            manager.move_var(var, best_pos)
            yield TraceStep(level=best_pos, scores=[(var, float(best_size))],
                            chosen=var, tie=False, size_after=len(manager))

    return _run("sift", manager, roots, search)


def window_permute(manager: BddManager, roots: Iterable[int] | None = None,
                   window: int = 3) -> ReorderTrace:
    """Sliding-window reordering: exhaustively permute each group of
    ``window`` adjacent levels, keep the best arrangement, and sweep
    until a full pass brings no improvement.  ``roots`` (default: the
    registered roots) are registered; sizes count every registered root.

    Each window visits its k! arrangements by k!-1 adjacent swaps
    (Steinhaus-Johnson-Trotter).  The first smallest arrangement in
    ``itertools.permutations(sorted(group))`` order is kept if it is
    strictly smaller than the current one.

    A window is skipped when the set of variables above it and its own
    arrangement are those an earlier visit left it in.  A level's node
    count depends only on its variable and the set of variables above
    it, so each arrangement again differs from the current one by the
    same amount as on that visit, where none was smaller than the one
    it left.  The current arrangement wins ties, so the visit would
    change nothing: skipping it changes no result and no step."""
    if not isinstance(window, int) or window not in (2, 3, 4):
        raise ValueError(f"window must be 2, 3 or 4, got {window}")
    if window > manager.n:
        raise ValueError(f"window {window} exceeds {manager.n} variables")

    def search(roots: list[int]) -> Iterator[TraceStep]:
        walk = _plain_changes(window)
        settled: set[tuple[frozenset[int], tuple[int, ...]]] = set()
        improved = True
        while improved:
            improved = False
            for start in range(0, manager.n - window + 1):
                order = manager.order
                base_perm = order[start:start + window]
                above = frozenset(order[:start])
                if (above, base_perm) in settled:
                    continue
                sizes = {base_perm: len(manager)}
                for offset in walk:
                    manager.swap_adjacent_levels(start + offset)
                    sizes[manager.order[start:start + window]] = len(manager)
                # min() keeps the first smallest, so base_perm wins ties.
                best = min((base_perm, *itertools.permutations(sorted(base_perm))),
                           key=sizes.__getitem__)
                for offset, var in enumerate(best):
                    manager.move_var(var, start + offset)
                settled.add((above, best))
                if best != base_perm:
                    improved = True
                    yield TraceStep(level=start, scores=[], chosen=None,
                                    tie=False, size_after=sizes[best])

    return _run("window", manager, roots, search)


def _plain_changes(k: int) -> list[int]:
    """Offsets i of the k!-1 adjacent transpositions (i, i+1) that walk
    through every arrangement of k items exactly once
    (Steinhaus-Johnson-Trotter): the last item sweeps from end to end,
    and between sweeps the others take one step of their own walk."""
    if k < 2:
        return []
    inner = _plain_changes(k - 1)
    walk: list[int] = []
    for sweep in range(len(inner) + 1):
        if sweep % 2 == 0:
            walk.extend(range(k - 2, -1, -1))   # the last item ends at 0
            shift = 1
        else:
            walk.extend(range(k - 1))           # the last item ends at k-1
            shift = 0
        if sweep < len(inner):
            walk.append(inner[sweep] + shift)
    return walk


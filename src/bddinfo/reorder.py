"""Variable reordering: entropy-guided greedy search plus the classic
sifting and window-permutation baselines.

All three run on the same substrate (adjacent level swaps on a live
manager), preserve every registered root, and return a ReorderTrace.
Each call ends with a mandatory equivalence check of the reordered
functions against a snapshot taken on entry.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

# perfbench/tracer.py wraps copy_function and conditional_entropy_var here.
from .manager import XOR, ZERO, BddManager, BddError, copy_function
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


def _resolve_roots(manager: BddManager, roots: Iterable[int] | None) -> list[int]:
    if roots is None:
        resolved = list(manager.registered_roots)
    else:
        resolved = list(roots)
        registered = set(manager.registered_roots)
        for r in resolved:
            manager._check(r)
            if r not in registered:
                manager.register_root(r)
    return resolved


def _snapshot(manager: BddManager, roots: list[int]):
    if manager.n <= _EXHAUSTIVE_CHECK_VARS:
        return ("tables", [oracle.enumerate_bdd(manager, r).bits for r in roots])
    return ("clone", manager.clone(), list(roots))


def _verify_unchanged(manager: BddManager, roots: list[int], snapshot) -> None:
    if snapshot[0] == "tables":
        for r, bits in zip(roots, snapshot[1]):
            if oracle.enumerate_bdd(manager, r).bits != bits:
                raise BddError("reordering changed a root's function")
    else:
        _, before, old_roots = snapshot
        for r, old in zip(roots, old_roots):
            image = copy_function(before, old, manager)
            if manager.apply(XOR, image, r) != ZERO:
                raise BddError("reordering changed a root's function")


def info_reorder(manager: BddManager, roots: Iterable[int] | None = None,
                 weights: VarProbabilities | None = None) -> ReorderTrace:
    """Greedy entropy-directed reordering.

    Level by level, every still-unplaced variable is scored by the
    conditional entropy of the outputs given the already placed prefix
    plus that variable; the minimizer (smallest variable id on ties) is
    moved to the level through adjacent swaps.
    """
    t0 = time.perf_counter()
    roots = _resolve_roots(manager, roots)
    w = _check_weights(manager, weights)
    snapshot = _snapshot(manager, roots)
    trace = ReorderTrace(method="info",
                         initial_order=list(manager.order),
                         final_order=[],
                         initial_size=manager.count_nodes(roots),
                         final_size=0)
    n = manager.n
    for level in range(n):
        placed = list(manager.order[:level])
        scored = [(var, sum(measures.conditional_entropy_set(
                                manager, root, placed + [var], w)
                            for root in roots))
                  for var in sorted(manager.order[level:])]
        best = min(score for _, score in scored)
        group = [var for var, score in scored if score <= best + _TIE_TOL]
        chosen = min(group)
        cur = manager.level_of_var(chosen)
        while cur > level:
            manager.swap_adjacent_levels(cur - 1)
            cur -= 1
        manager.collect_garbage()
        trace.steps.append(TraceStep(level=level, scores=scored, chosen=chosen,
                                     tie=len(group) > 1,
                                     size_after=manager.count_nodes(roots)))
    trace.final_order = list(manager.order)
    trace.final_size = manager.count_nodes(roots)
    _verify_unchanged(manager, roots, snapshot)
    trace.elapsed = time.perf_counter() - t0
    return trace


def sift(manager: BddManager, roots: Iterable[int] | None = None) -> ReorderTrace:
    """Rudell-style sifting: move each variable through every level and
    park it where the shared node count is smallest.  Variables are
    processed by decreasing node population; the total size never ends
    up above its starting value."""
    t0 = time.perf_counter()
    roots = _resolve_roots(manager, roots)
    snapshot = _snapshot(manager, roots)
    trace = ReorderTrace(method="sift",
                         initial_order=list(manager.order),
                         final_order=[],
                         initial_size=manager.count_nodes(roots),
                         final_size=0)
    n = manager.n
    population: dict[int, int] = {var: 0 for var in range(n)}
    for u in manager._reachable(roots):
        population[manager._node[u][0]] += 1
    priority = sorted(range(n), key=lambda var: (-population[var], var))
    for var in priority:
        start = manager.level_of_var(var)
        best_size = manager.count_nodes(roots)
        best_pos = start
        if start <= n - 1 - start:
            sweep = list(range(start - 1, -1, -1)) + list(range(1, n))
        else:
            sweep = list(range(start + 1, n)) + list(range(n - 2, -1, -1))
        for pos in sweep:
            cur = manager.level_of_var(var)
            manager.swap_adjacent_levels(min(cur, pos))
            size = manager.count_nodes(roots)
            if size < best_size:
                best_size = size
                best_pos = pos
        cur = manager.level_of_var(var)
        while cur > best_pos:
            manager.swap_adjacent_levels(cur - 1)
            cur -= 1
        while cur < best_pos:
            manager.swap_adjacent_levels(cur)
            cur += 1
        manager.collect_garbage()
        trace.steps.append(TraceStep(level=best_pos,
                                     scores=[(var, float(best_size))],
                                     chosen=var, tie=False,
                                     size_after=manager.count_nodes(roots)))
    trace.final_order = list(manager.order)
    trace.final_size = manager.count_nodes(roots)
    _verify_unchanged(manager, roots, snapshot)
    trace.elapsed = time.perf_counter() - t0
    return trace


def window_permute(manager: BddManager, roots: Iterable[int] | None = None,
                   window: int = 3) -> ReorderTrace:
    """Sliding-window reordering: exhaustively permute each group of
    ``window`` adjacent levels, keep the best arrangement, and sweep
    until a full pass brings no improvement."""
    if window not in (2, 3, 4):
        raise ValueError(f"window must be 2, 3 or 4, got {window}")
    if window > manager.n:
        raise ValueError(f"window {window} exceeds {manager.n} variables")
    t0 = time.perf_counter()
    roots = _resolve_roots(manager, roots)
    snapshot = _snapshot(manager, roots)
    trace = ReorderTrace(method="window",
                         initial_order=list(manager.order),
                         final_order=[],
                         initial_size=manager.count_nodes(roots),
                         final_size=0)
    n = manager.n
    improved = True
    while improved:
        improved = False
        for start in range(0, n - window + 1):
            base_size = manager.count_nodes(roots)
            group = sorted(manager.var_at_level(start + i) for i in range(window))
            best_perm = tuple(manager.var_at_level(start + i) for i in range(window))
            best_size = base_size
            for perm in itertools.permutations(group):
                _place_window(manager, start, perm)
                size = manager.count_nodes(roots)
                if size < best_size:
                    best_size = size
                    best_perm = perm
            _place_window(manager, start, best_perm)
            if best_size < base_size:
                improved = True
                manager.collect_garbage()
                trace.steps.append(TraceStep(level=start, scores=[],
                                             chosen=None, tie=False,
                                             size_after=best_size))
    manager.collect_garbage()
    trace.final_order = list(manager.order)
    trace.final_size = manager.count_nodes(roots)
    _verify_unchanged(manager, roots, snapshot)
    trace.elapsed = time.perf_counter() - t0
    return trace


def _place_window(manager: BddManager, start: int, perm: tuple[int, ...]) -> None:
    for offset, var in enumerate(perm):
        cur = manager.level_of_var(var)
        while cur > start + offset:
            manager.swap_adjacent_levels(cur - 1)
            cur -= 1

"""Probabilities and Shannon information measures evaluated on BDDs.

Every measure is built from weighted passes over the level-sorted
graph.  The bottom-up pass evaluates

    p(node) = p(x=0) * p(low child) + p(x=1) * p(high child)

with p(terminal one) = 1 and p(terminal zero) = 0.  Under the default
uniform weights this yields the output probability; forcing a
variable's pair to (1, 0) or (0, 1) yields conditional probabilities.
The top-down pass assigns every node the probability mass of the
root-to-node paths.  A probability given one variable x is read off a
slope: p(node) is linear in x's pair, so with D = dp(node)/dp(x=1),
the sum of mass(v) * (p(high) - p(low)) over the nodes v testing x,
each with the mass the node pushes to it,

    p(f=1 | x=0) = p(node) - p(x=1) * D,  p(f=1 | x=1) = p(node) + p(x=0) * D.

``all_joint_probabilities`` reads every pair of one root off its slopes.

Every conditional entropy H(f|S) comes from one kernel,
``_conditioned``, which answers a list of queries for a list of roots
from one level order of their shared graph; its docstring gives the
passes.  Every caller makes S a query with ``_query``.
``conditional_entropy_set`` asks one query (``conditional_entropy_var``
through it); ``measure_report`` asks H(f), every H(f|x) and every subset
in one call, and takes p(f=1) from the same unforced pass;
entropy-guided reordering asks H(f | placed prefix, x) for every
candidate x of a level in one call over the frontiers of all roots,
which it carries and advances itself, so the placed prefix is never
pushed again.

All passes are loops, not recursions, and measures build no nodes:
they work under any node_limit and leave len(manager) unchanged.  Each
pass reads its level order from ``BddManager._levelled``, so every
public measure of one root set shares one walk of their graph until the
next level swap, sweep or rollback.

Entropies are bits (base-2 logarithms), with 0 * log 0 taken as 0.

Correctness of the level-skipping recursions on reduced BDDs needs each
variable's weight pair to sum to 1; that is a hard precondition.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .manager import ONE, ZERO, BddManager, UsageError, _entries, _index

_PAIR_TOL = 1e-12
_FORCED = ((1.0, 0.0), (0.0, 1.0))      # a weight pair pinned to x=0 / x=1


class WeightError(ValueError):
    """Invalid per-variable input distribution."""


class VarProbabilities:
    """Per-variable input distribution: (p(x=0), p(x=1)) for each variable.

    Each pair is two real numbers, not bools, in [0, 1] that sum to 1
    within 1e-12; anything else raises WeightError.  Instances are
    immutable; use :meth:`forced` to derive the pinned distributions
    used for conditional queries.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Sequence[tuple[float, float]]):
        checked = []
        for var, pair in enumerate(_entries(pairs, WeightError, "weight pairs")):
            try:
                p0, p1 = pair
            except (TypeError, ValueError):
                p0 = p1 = None                  # not a pair
            if not all(isinstance(p, numbers.Real) and type(p) is not bool
                       for p in (p0, p1)):      # True would weigh as 1.0
                raise WeightError(
                    f"variable {var}: {pair!r} is not a pair of real numbers")
            p0, p1 = float(p0), float(p1)
            if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
                raise WeightError(f"variable {var}: probabilities outside [0, 1]")
            if abs(p0 + p1 - 1.0) > _PAIR_TOL:
                raise WeightError(
                    f"variable {var}: p0 + p1 = {p0 + p1!r} must be 1")
            checked.append((p0, p1))
        self._pairs = tuple(checked)

    @classmethod
    @functools.lru_cache(maxsize=128, typed=True)
    def uniform(cls, n: int) -> "VarProbabilities":
        # Immutable, so one per n; typed, so uniform(True) misses uniform(1).
        return cls(((0.5, 0.5),) * _index(n, None, WeightError, "variable count"))

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarProbabilities) and self._pairs == other._pairs

    def __repr__(self) -> str:
        return f"VarProbabilities({list(self._pairs)!r})"

    def pair(self, var: int) -> tuple[float, float]:
        return self._pairs[_index(var, len(self._pairs), WeightError, "variable")]

    def p0(self, var: int) -> float:
        return self.pair(var)[0]

    def p1(self, var: int) -> float:
        return self.pair(var)[1]

    def is_uniform(self) -> bool:
        return all(p == (0.5, 0.5) for p in self._pairs)

    def forced(self, var: int, value: int) -> "VarProbabilities":
        """Copy with ``var`` pinned to ``value`` (weight pair (0,1) or (1,0))."""
        pairs = list(self._pairs)
        pairs[_index(var, len(pairs), WeightError, "variable")] = \
            _FORCED[_index(value, 2, WeightError, "value")]
        return VarProbabilities(pairs)


@dataclass
class ProbabilityProfile:
    """Every probability of one function under one input distribution.

    ``joint[v]`` is (p(f=1, x=0), p(f=1, x=1)); ``conditional[v]`` is the
    matching conditional pair, with None where p(x=b) = 0 makes the
    conditional undefined.
    """

    sat: float
    joint: dict[int, tuple[float, float]]
    conditional: dict[int, tuple[float | None, float | None]]


@dataclass
class MeasureReport:
    """Entropy summary of one output: H(f), per-variable H(f|x) and I(f;x),
    optional set conditionals, and the raw assignment counts when the
    values came from enumeration."""

    sat: float
    entropy: float
    cond_entropy: dict[int, float]
    mutual_info: dict[int, float]
    set_entropy: dict[tuple[int, ...], float] = field(default_factory=dict)
    counts: tuple[int, int] | None = None


def _check_weights(n: int, w: VarProbabilities | None) -> VarProbabilities:
    if w is None:
        return VarProbabilities.uniform(n)
    if not isinstance(w, VarProbabilities):
        raise WeightError(f"weights must be VarProbabilities, got {type(w).__name__}")
    if len(w) != n:
        raise WeightError(f"weights cover {len(w)} variables, expected {n}")
    return w


def _bottom_up(manager: BddManager, order: Sequence[int],
               pairs: Sequence[tuple[float, float]]) -> dict[int, float]:
    """Node probabilities over the level-sorted ``order``, under the weight
    ``pairs`` indexed by variable; ``order`` must hold every internal
    node below its own nodes."""
    nodes = manager._node
    sat = {ZERO: 0.0, ONE: 1.0}
    for u in reversed(order):
        var, lo, hi = nodes[u]
        p0, p1 = pairs[var]
        sat[u] = p0 * sat[lo] + p1 * sat[hi]
    return sat


def _top_down(manager: BddManager, reach: dict[int, float], order: Sequence[int],
              pairs: Sequence[tuple[float, float]],
              keep: bool = False) -> dict[int, float]:
    """Push the path masses in ``reach`` down through the level-sorted
    ``order``, in place; nodes that carry no mass are skipped.  Each
    node that hands its mass on to its children leaves ``reach``, so
    ``reach`` ends as the frontier below ``order``, unless ``keep``
    leaves every node's mass in it."""
    nodes = manager._node
    take = reach.get if keep else reach.pop
    for u in order:
        mass = take(u, None)
        if mass is None:
            continue
        var, lo, hi = nodes[u]
        p0, p1 = pairs[var]
        reach[lo] = reach.get(lo, 0.0) + mass * p0
        reach[hi] = reach.get(hi, 0.0) + mass * p1
    return reach


def weighted_sat_probability(manager: BddManager, root: int,
                             w: VarProbabilities | None = None) -> float:
    """Probability that the function is 1 under the input distribution.

    Sums, over all satisfying assignments, the product of the chosen
    per-variable weights.  Uniform weights give the output probability;
    weights forced by :meth:`VarProbabilities.forced` give conditionals.
    """
    manager._check(root)
    w = _check_weights(manager.n, w)
    return _bottom_up(manager, manager._levelled((root,)), w._pairs)[root]


def reach_probabilities(manager: BddManager, root: int,
                        w: VarProbabilities | None = None) -> dict[int, float]:
    """Top-down path mass for every node reachable from the root.

    The root carries mass 1; each node splits its mass onto its children
    weighted by the branch probabilities, and masses of converging edges
    add up.  The mass arriving at terminal one equals the satisfaction
    probability.
    """
    manager._check(root)
    w = _check_weights(manager.n, w)
    return _top_down(manager, {root: 1.0}, manager._levelled((root,)), w._pairs,
                     keep=True)


def all_joint_probabilities(manager: BddManager, root: int,
                            w: VarProbabilities | None = None) -> ProbabilityProfile:
    """All per-variable joint and conditional probabilities in one pass pair.

    One bottom-up pass gives node probabilities, one top-down pass path
    masses, and each variable x the slope D_x, the sum of
    mass(u) * (p(hi) - p(lo)) over the nodes u testing x.  Then
    p(f=1 | x=0) = p - p1 * D_x and p(f=1 | x=1) = p + p0 * D_x, and
    the joints are p0 and p1 times them; a variable the function
    ignores has D_x = 0 and gets (p, p).
    """
    manager._check(root)
    w = _check_weights(manager.n, w)
    order = manager._levelled((root,))
    sat = _bottom_up(manager, order, w._pairs)
    reach = _top_down(manager, {root: 1.0}, order, w._pairs, keep=True)
    nodes = manager._node
    slope = [0.0] * manager.n
    for u in order:
        var, lo, hi = nodes[u]
        slope[var] += reach[u] * (sat[hi] - sat[lo])
    p = sat[root]
    joint = {}
    conditional = {}
    for var, (p0, p1) in enumerate(w._pairs):
        c0, c1 = p - p1 * slope[var], p + p0 * slope[var]
        joint[var] = (p0 * c0, p1 * c1)
        conditional[var] = (c0 if p0 > 0.0 else None, c1 if p1 > 0.0 else None)
    return ProbabilityProfile(sat=p, joint=joint, conditional=conditional)


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def entropy(manager: BddManager, root: int,
            w: VarProbabilities | None = None) -> float:
    """H(f) in bits: binary entropy of the satisfaction probability."""
    return _binary_entropy(weighted_sat_probability(manager, root, w))


def _var_set(manager: BddManager, variables: Iterable[int]) -> set[int]:
    """``variables`` as a set of checked variables; UsageError when it is
    not iterable or holds anything but a variable."""
    return {manager._check_var(var)
            for var in _entries(variables, UsageError, "a variable set")}


def _query(manager: BddManager, given: set[int]) -> tuple[int, tuple[int, ...]]:
    """The set ``given`` as a conditioning query (depth, rest): its top
    run of levels 0..depth-1, and its other variables by id."""
    level_var = manager._level_var
    depth = 0
    while depth < manager.n and level_var[depth] in given:
        depth += 1
    return depth, tuple(sorted(given.difference(level_var[:depth])))


def _slopes(manager: BddManager, order: Sequence[int], sat: dict[int, float],
            pairs: Sequence[tuple[float, float]],
            frontier: Iterable[int]) -> dict[int, dict[int, float]]:
    """For every ``frontier`` node u, D_u[var] = dp(u)/dp(var=1) for the
    variables tested in the level-sorted ``order``, from one top-down
    pass that carries the path mass of every frontier node at once.

    A node v testing var adds mass(u -> v) * (p(hi) - p(lo)) to D_u[var]:
    p(u) is linear in var's pair, and no other node depends on it.
    Variables u cannot reach get no entry.

    A frontier of one node, such as a root at depth 0, takes a flat
    route: one float of mass per node and one slope per variable.
    Larger frontiers carry a dict of masses, one per frontier node, per
    node.  Both add the same products in the same order, so a node's
    slopes are the same floats on either route.
    """
    nodes = manager._node
    frontier = list(frontier)
    if len(frontier) == 1:
        (u,) = frontier
        reach = {u: 1.0}
        flat: dict[int, float] = {}
        for v in order:
            mass = reach.pop(v, None)
            if mass is None:
                continue
            var, lo, hi = nodes[v]
            p0, p1 = pairs[var]
            flat[var] = flat.get(var, 0.0) + mass * (sat[hi] - sat[lo])
            reach[lo] = reach.get(lo, 0.0) + mass * p0
            reach[hi] = reach.get(hi, 0.0) + mass * p1
        return {var: {u: d} for var, d in flat.items()}
    carried = {u: {u: 1.0} for u in frontier}
    slopes: dict[int, dict[int, float]] = {}
    for v in order:
        masses = carried.pop(v, None)
        if masses is None:
            continue
        var, lo, hi = nodes[v]
        p0, p1 = pairs[var]
        step = sat[hi] - sat[lo]
        slope = slopes.setdefault(var, {})
        to_lo = carried.setdefault(lo, {})
        to_hi = carried.setdefault(hi, {})
        for u, mass in masses.items():
            slope[u] = slope.get(u, 0.0) + mass * step
            to_lo[u] = to_lo.get(u, 0.0) + mass * p0
            to_hi[u] = to_hi.get(u, 0.0) + mass * p1
    return slopes


def _conditioned(manager: BddManager, reaches: Sequence[dict[int, float]],
                 queries: Sequence[tuple[int, tuple[int, ...]]],
                 w: VarProbabilities, order: Sequence[int] | None = None,
                 ) -> tuple[list[float], dict[int, float]]:
    """For each query (depth, rest), the sum over the roots of
    ``reaches`` (in order, duplicates counted) of H(f | the variables on
    levels < depth, and ``rest``), over one level order of their shared
    graph.  Also returns the unforced node probabilities of every level
    from the shallowest query depth down.

    ``reaches`` holds each root's frontier: the path masses that the
    levels above some depth hand to the nodes at or below it;
    ``{root: 1.0}`` is the frontier at depth 0.  No query may be
    shallower than a frontier.  Copies of the frontiers are pushed down
    (``_top_down``), shallowest query depth first, each push extending
    the last; the caller's dicts are left unchanged.

    ``order`` lists the nodes level by level, ties by handle, from the
    frontiers' depth down; it must hold every node the frontiers' mass
    reaches, and nodes it does not reach change no value.  By default
    it is walked from the frontier nodes.

    At each query depth, a frontier's nodes are read from its dict by
    (level, handle), terminals left out: they have no entropy.  One
    unforced bottom-up pass serves every query, and each query takes
    one of two routes by the number k of variables in ``rest``.  With
    k <= 1, each frontier node u gives h(p(u)) or, if it reaches the one
    variable x, reads D_u[x] from one slope pass per depth (``_slopes``,
    flat when the depth's frontier nodes are one node) and gives
    H(f_u | x) = p0 * h(p(u) - p1 * D_u) + p1 * h(p(u) + p0 * D_u);
    k = 0 is this route with no slope.  With k >= 2, the call gives
    every node from the shallowest query depth down, then the two
    terminals, one position in one list of their unforced values; the
    query lists its levels, from ``depth`` down to the deepest of the k
    variables, bottom up as rows (position, variable, low position,
    high position), and each assignment to the k variables is one
    forced pass that recomputes the rows in a copy of that list, so a
    pass reads and writes list slots, not dict entries.  Every row
    writes its slot before a later row reads it, so one copy serves the
    query's 2^k passes in turn.  The nodes below the levels never
    test the k variables, so they keep their unforced values.
    """
    nodes, pairs, level = manager._node, w._pairs, manager._var_level
    if order is None:
        order = manager._levelled(itertools.chain.from_iterable(reaches))
    reaches = [dict(reach) for reach in reaches]
    levels = [level[nodes[u][0]] for u in order]
    start = [bisect.bisect_left(levels, at) for at in range(manager.n + 1)]
    depths = sorted({depth for depth, _ in queries})
    frontiers = {}
    pushed = 0
    for depth in depths:
        part = order[start[pushed]:start[depth]]
        frontiers[depth] = []
        for reach in reaches:
            _top_down(manager, reach, part, pairs)
            ranked = sorted((level[nodes[u][0]], u) for u in reach if u in nodes)
            frontiers[depth].append([(u, reach[u]) for _, u in ranked])
        pushed = depth
    below = order[start[depths[0]]:]
    sat = _bottom_up(manager, below, pairs)

    # One slope pass per depth with single-variable queries, over the
    # frontier nodes of every root, down to the deepest variable asked.
    deepest: dict[int, int] = {}
    for depth, rest in queries:
        if len(rest) == 1:
            deepest[depth] = max(deepest.get(depth, 0), level[rest[0]])
    slopes = {}
    for depth, bottom in deepest.items():
        frontier = dict.fromkeys(u for nodes_at in frontiers[depth]
                                 for u, _ in nodes_at)
        slopes[depth] = _slopes(manager, order[start[depth]:start[bottom + 1]],
                                sat, pairs, frontier)

    # One position index and one list of unforced values for every
    # forced pass, over ``below`` and then the two terminals.
    if any(len(rest) >= 2 for _, rest in queries):
        position = {u: i for i, u in enumerate([*below, ZERO, ONE])}
        unforced = [sat[u] for u in position]

    values = []
    for depth, rest in queries:
        totals = [0.0] * len(reaches)
        if len(rest) <= 1:
            slope = {}              # no slope with no variable: p(u) as it is
            if rest:
                (x,) = rest
                p0, p1 = pairs[x]
                slope = slopes[depth].get(x, {})
            for i, frontier in enumerate(frontiers[depth]):
                total = 0.0
                for u, mass in frontier:
                    p = sat[u]
                    d = slope.get(u)
                    if d is None:
                        total += mass * _binary_entropy(p)
                    else:
                        total += mass * (p0 * _binary_entropy(p - p1 * d)
                                         + p1 * _binary_entropy(p + p0 * d))
                totals[i] = total
        else:
            part = order[start[depth]:start[max(level[v] for v in rest) + 1]]
            rows = []
            for u in reversed(part):
                var, lo, hi = nodes[u]
                rows.append((position[u], var, position[lo], position[hi]))
            read = [[(position[u], mass) for u, mass in frontier]
                    for frontier in frontiers[depth]]
            probs = unforced.copy()
            for bits in itertools.product((0, 1), repeat=len(rest)):
                forced = list(pairs)
                weight = 1.0
                for var, value in zip(rest, bits):
                    forced[var] = _FORCED[value]
                    weight *= pairs[var][value]
                for at, var, lo, hi in rows:
                    p0, p1 = forced[var]
                    probs[at] = p0 * probs[lo] + p1 * probs[hi]
                for i, frontier in enumerate(read):
                    total = totals[i]
                    for at, mass in frontier:
                        total += mass * weight * _binary_entropy(probs[at])
                    totals[i] = total
        value = 0.0                 # left to right: builtin sum is
        for total in totals:        # compensated from Python 3.12
            value += total
        values.append(value)
    return values, sat


def conditional_entropy_var(manager: BddManager, root: int, var: int,
                            w: VarProbabilities | None = None) -> float:
    """H(f|x) in bits: the weight-averaged entropies of f with x fixed."""
    return conditional_entropy_set(manager, root, (var,), w)


def conditional_entropy_set(manager: BddManager, root: int,
                            variables: Iterable[int],
                            w: VarProbabilities | None = None) -> float:
    """H(f|S) in bits: expected entropy over all assignments to the set."""
    manager._check(root)
    w = _check_weights(manager.n, w)
    given = _var_set(manager, variables)
    return _conditioned(manager, [{root: 1.0}], [_query(manager, given)], w)[0][0]


def mutual_information(manager: BddManager, root: int, var: int,
                       w: VarProbabilities | None = None) -> float:
    """I(f;x) = H(f) - H(f|x) in bits, from one ``_conditioned`` call."""
    manager._check(root)
    w = _check_weights(manager.n, w)
    manager._check_var(var)
    queries = [_query(manager, set()), _query(manager, {var})]
    (h, hv), _ = _conditioned(manager, [{root: 1.0}], queries, w)
    return h - hv


def measure_report(manager: BddManager, root: int,
                   w: VarProbabilities | None = None,
                   subsets: Iterable[Iterable[int]] = ()) -> MeasureReport:
    """Full entropy report for one output, from one ``_conditioned``
    call: H(f) as H(f | no variables), every H(f|x), every subset, and
    the probability from the same unforced pass."""
    manager._check(root)
    w = _check_weights(manager.n, w)
    keys = list(dict.fromkeys(
        tuple(sorted(_var_set(manager, subset)))
        for subset in _entries(subsets, UsageError, "subsets")))
    given = [(), *((var,) for var in range(manager.n)), *keys]
    values, sat = _conditioned(manager, [{root: 1.0}],
                               [_query(manager, set(vs)) for vs in given], w)
    h = values[0]
    cond = dict(enumerate(values[1:manager.n + 1]))
    mutual = {var: h - hv for var, hv in cond.items()}
    set_entropy = dict(zip(keys, values[manager.n + 1:]))
    return MeasureReport(sat=sat[root], entropy=h, cond_entropy=cond,
                         mutual_info=mutual, set_entropy=set_entropy)

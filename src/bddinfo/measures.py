"""Probabilities and Shannon information measures evaluated on BDDs.

Every measure is a composition of two weighted passes over the
level-sorted graph.  The bottom-up pass evaluates

    p(node) = p(x=0) * p(low child) + p(x=1) * p(high child)

with p(terminal one) = 1 and p(terminal zero) = 0.  Under the default
uniform weights this yields the output probability; forcing a
variable's pair to (1, 0) or (0, 1) yields conditional probabilities.
The top-down pass assigns every node the probability mass of the
root-to-node paths, and the pair of passes gives every per-variable
joint and conditional probability of the function in one sweep.
H(f|S) branches on the variables of S at the top of the order with the
top-down pass and runs one forced bottom-up pass per assignment to the
k others, 2^k passes in all.

Both passes are loops, not recursions, and measures build no nodes:
they work under any node_limit and leave len(manager) unchanged.

Entropies are bits (base-2 logarithms), with 0 * log 0 taken as 0.

Correctness of the level-skipping recursions on reduced BDDs needs each
variable's weight pair to sum to 1; that is a hard precondition.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .manager import ONE, ZERO, BddManager

_PAIR_TOL = 1e-12


class WeightError(ValueError):
    """Invalid per-variable input distribution."""


class VarProbabilities:
    """Per-variable input distribution: (p(x=0), p(x=1)) for each variable.

    Pairs must sum to 1 within 1e-12.  Instances are immutable; use
    :meth:`forced` to derive the pinned distributions used for
    conditional queries.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Sequence[tuple[float, float]]):
        checked = []
        for var, (p0, p1) in enumerate(pairs):
            p0 = float(p0)
            p1 = float(p1)
            if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
                raise WeightError(f"variable {var}: probabilities outside [0, 1]")
            if abs(p0 + p1 - 1.0) > _PAIR_TOL:
                raise WeightError(
                    f"variable {var}: p0 + p1 = {p0 + p1!r} must be 1")
            checked.append((p0, p1))
        self._pairs = tuple(checked)

    @classmethod
    @functools.lru_cache(maxsize=128)
    def uniform(cls, n: int) -> "VarProbabilities":
        # Instances are immutable, so sharing the per-n uniform is safe.
        return cls(((0.5, 0.5),) * n)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarProbabilities) and self._pairs == other._pairs

    def __repr__(self) -> str:
        return f"VarProbabilities({list(self._pairs)!r})"

    def pair(self, var: int) -> tuple[float, float]:
        return self._pairs[var]

    def p0(self, var: int) -> float:
        return self._pairs[var][0]

    def p1(self, var: int) -> float:
        return self._pairs[var][1]

    def is_uniform(self) -> bool:
        return all(p == (0.5, 0.5) for p in self._pairs)

    def forced(self, var: int, value: int) -> "VarProbabilities":
        """Copy with ``var`` pinned to ``value`` (weight pair (0,1) or (1,0))."""
        if value not in (0, 1):
            raise WeightError(f"value must be 0 or 1, got {value!r}")
        pairs = list(self._pairs)
        pairs[var] = (0.0, 1.0) if value else (1.0, 0.0)
        return VarProbabilities(pairs)


@dataclass
class ProbabilityProfile:
    """Every probability of one function under one input distribution.

    ``joint[v]`` is (p(f=1, x=0), p(f=1, x=1)); ``conditional[v]`` is the
    matching conditional pair, with None where p(x=b) = 0 makes the
    conditional undefined.  ``reach`` maps each reachable node to the
    probability mass of root-to-node paths (1.0 at the root).
    """

    sat: float
    joint: dict[int, tuple[float, float]]
    conditional: dict[int, tuple[float | None, float | None]]
    reach: dict[int, float]


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


def _check_weights(manager: BddManager, w: VarProbabilities | None) -> VarProbabilities:
    if w is None:
        return VarProbabilities.uniform(manager.n)
    if len(w) != manager.n:
        raise WeightError(
            f"weights cover {len(w)} variables, manager has {manager.n}")
    return w


def _levelled(manager: BddManager, root: int) -> list[int]:
    """Internal nodes reachable from the root, top level first, ties by handle."""
    level, nodes = manager._var_level, manager._node
    return sorted(manager._reachable((root,)),
                  key=lambda u: (level[nodes[u][0]], u))


def _bottom_up(manager: BddManager, order: list[int],
               w: VarProbabilities) -> dict[int, float]:
    """Node probabilities over the level-sorted, child-closed ``order``."""
    nodes, pairs = manager._node, w._pairs
    sat = {ZERO: 0.0, ONE: 1.0}
    for u in reversed(order):
        var, lo, hi = nodes[u]
        p0, p1 = pairs[var]
        sat[u] = p0 * sat[lo] + p1 * sat[hi]
    return sat


def _top_down(manager: BddManager, root: int, order: list[int],
              w: VarProbabilities) -> dict[int, float]:
    """Path masses from the root, pushed down through the level-sorted ``order``."""
    nodes, pairs = manager._node, w._pairs
    reach = {root: 1.0}
    for u in order:
        var, lo, hi = nodes[u]
        mass = reach[u]
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
    w = _check_weights(manager, w)
    return _bottom_up(manager, _levelled(manager, root), w)[root]


def reach_probabilities(manager: BddManager, root: int,
                        w: VarProbabilities | None = None) -> dict[int, float]:
    """Top-down path mass for every node reachable from the root.

    The root carries mass 1; each node splits its mass onto its children
    weighted by the branch probabilities, and masses of converging edges
    add up.  The mass arriving at terminal one equals the satisfaction
    probability.
    """
    manager._check(root)
    w = _check_weights(manager, w)
    return _top_down(manager, root, _levelled(manager, root), w)


def all_joint_probabilities(manager: BddManager, root: int,
                            w: VarProbabilities | None = None) -> ProbabilityProfile:
    """All per-variable joint and conditional probabilities in one pass pair.

    One bottom-up pass gives node satisfaction probabilities, one
    top-down pass gives path masses.  For each variable the mass routed
    through its nodes is combined with the children's probabilities; the
    remainder of p(f=1) comes from paths that skip the variable, where
    function and variable are independent.
    """
    manager._check(root)
    w = _check_weights(manager, w)
    order = _levelled(manager, root)
    sat = _bottom_up(manager, order, w)
    reach = _top_down(manager, root, order, w)
    nodes = manager._node
    p_one = sat[root]
    through: dict[int, float] = {}
    lo_part: dict[int, float] = {}
    hi_part: dict[int, float] = {}
    for u in order:
        var, lo, hi = nodes[u]
        mass = reach[u]
        through[var] = through.get(var, 0.0) + mass * sat[u]
        lo_part[var] = lo_part.get(var, 0.0) + mass * sat[lo]
        hi_part[var] = hi_part.get(var, 0.0) + mass * sat[hi]
    joint = {}
    conditional = {}
    for var in range(manager.n):
        p0, p1 = w.pair(var)
        skipped = p_one - through.get(var, 0.0)
        j0 = p0 * (lo_part.get(var, 0.0) + skipped)
        j1 = p1 * (hi_part.get(var, 0.0) + skipped)
        joint[var] = (j0, j1)
        conditional[var] = (j0 / p0 if p0 > 0.0 else None,
                            j1 / p1 if p1 > 0.0 else None)
    return ProbabilityProfile(sat=p_one, joint=joint,
                              conditional=conditional, reach=reach)


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def entropy(manager: BddManager, root: int,
            w: VarProbabilities | None = None) -> float:
    """H(f) in bits: binary entropy of the satisfaction probability."""
    return _binary_entropy(weighted_sat_probability(manager, root, w))


def _conditional_entropy(manager: BddManager, root: int, given: set[int],
                         w: VarProbabilities) -> float:
    """H(f|given) in bits, the one conditioning routine.

    Given variables on the top levels are branched on by pushing path
    mass down through those levels.  Every assignment to the others is
    one bottom-up pass, with their weight pairs forced, over the nodes
    the mass lands on and everything below them.
    """
    nodes = manager._node
    level, level_var = manager._var_level, manager._level_var
    depth = 0
    while depth < manager.n and level_var[depth] in given:
        depth += 1
    rest = sorted(given.difference(level_var[:depth]))
    order = _levelled(manager, root)
    split = bisect.bisect_left(order, depth, key=lambda u: level[nodes[u][0]])
    reach = _top_down(manager, root, order[:split], w)
    below = order[split:]
    frontier = [(u, reach[u]) for u in below if u in reach]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(rest)):
        forced = w
        weight = 1.0
        for var, value in zip(rest, bits):
            forced = forced.forced(var, value)
            weight *= w.pair(var)[value]
        sat = _bottom_up(manager, below, forced)
        for u, mass in frontier:
            total += mass * weight * _binary_entropy(sat[u])
    return total


def conditional_entropy_var(manager: BddManager, root: int, var: int,
                            w: VarProbabilities | None = None) -> float:
    """H(f|x) in bits: the weight-averaged entropies of f with x fixed."""
    manager._check(root)
    manager._check_var(var)
    return _conditional_entropy(manager, root, {var}, _check_weights(manager, w))


def conditional_entropy_set(manager: BddManager, root: int,
                            variables: Iterable[int],
                            w: VarProbabilities | None = None) -> float:
    """H(f|S) in bits: expected entropy over all assignments to the set."""
    manager._check(root)
    w = _check_weights(manager, w)
    given = set(variables)
    for var in given:
        manager._check_var(var)
    return _conditional_entropy(manager, root, given, w)


def mutual_information(manager: BddManager, root: int, var: int,
                       w: VarProbabilities | None = None) -> float:
    """I(f;x) = H(f) - H(f|x) in bits."""
    w = _check_weights(manager, w)
    return entropy(manager, root, w) - conditional_entropy_var(manager, root, var, w)


def measure_report(manager: BddManager, root: int,
                   w: VarProbabilities | None = None,
                   subsets: Iterable[Iterable[int]] = ()) -> MeasureReport:
    """Full entropy report for one output."""
    manager._check(root)
    w = _check_weights(manager, w)
    sat = weighted_sat_probability(manager, root, w)
    h = _binary_entropy(sat)
    cond = {}
    mutual = {}
    for var in range(manager.n):
        hv = conditional_entropy_var(manager, root, var, w)
        cond[var] = hv
        mutual[var] = h - hv
    set_entropy = {}
    for subset in subsets:
        vs = tuple(sorted(set(subset)))
        set_entropy[vs] = conditional_entropy_set(manager, root, vs, w)
    return MeasureReport(sat=sat, entropy=h, cond_entropy=cond,
                         mutual_info=mutual, set_entropy=set_entropy)

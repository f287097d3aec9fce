"""Brute-force ground truth, independent of the BDD code paths.

Functions here work on flat truth tables stored as integer bitmasks.
``enumerate_bdd`` is the one bridge from a diagram: it hands assignment
masks down from the root to ONE and reads only the node triples, so it
never runs the if-then-else kernel, a swap or a measure.
Probabilities are integers over a power of two, counts of assignments or
sums of weights, that become floats only where they leave the oracle: as
entropies, or as counts over a power of two that a float holds exactly.
So a float bug in the graph code cannot hide behind an identical one here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .manager import (ONE, BddManager, _MAX_VECTOR, _entries, _index,
                      _permutation, _truth_vector)
from .measures import MeasureReport, VarProbabilities, _check_weights

MAX_ENUM_VARS = _MAX_VECTOR.bit_length() - 1     # a table is a truth vector
MAX_ORDER_SEARCH_VARS = 8


class OracleLimitError(ValueError):
    """Problem too large for exhaustive treatment."""


@dataclass(frozen=True)
class TruthTable:
    """Complete function table: bit i of ``bits`` is f at assignment i.

    Assignment index i is read as (x1, ..., xn) with variable 0 most
    significant, matching the manager's truth-vector convention.
    """

    n: int
    bits: int

    def __post_init__(self):
        if _index(self.n, None, ValueError, "variable count") > MAX_ENUM_VARS:
            raise OracleLimitError(f"refusing a table over {self.n} variables")
        if _index(self.bits, None, ValueError, "table bits") >> (1 << self.n):
            raise ValueError("table bits out of range for n")

    @classmethod
    def from_string(cls, s: str) -> "TruthTable":
        vec = _truth_vector(s)
        return cls(len(vec).bit_length() - 1, int("".join(map(str, vec[::-1])), 2))

    def to_string(self) -> str:
        # Character i is bit i: the binary numeral, lowest bit first.
        return format(self.bits, f"0{1 << self.n}b")[::-1]

    def value(self, index: int) -> int:
        return (self.bits >> index) & 1

    @property
    def assignments(self) -> int:
        return 1 << self.n

    @property
    def ones(self) -> int:
        return self.bits.bit_count()

    def sat_probability(self) -> float:
        return self.ones / self.assignments


def _table(tt) -> TruthTable:
    """``tt`` if it is a TruthTable, else ValueError."""
    if not isinstance(tt, TruthTable):
        raise ValueError(f"expected a TruthTable, got {tt!r}")
    return tt


@functools.lru_cache(maxsize=4096)
def _var_mask(n: int, var: int, value: int) -> int:
    """Bitmask over assignment indices where the variable takes ``value``.

    One period of 2·stride indices, with ones where the variable takes
    ``value``, is doubled until it spans all 2**n indices.
    """
    stride = 1 << (n - 1 - var)
    mask = ((1 << stride) - 1) << (stride if value else 0)
    span = stride * 2
    while span < 1 << n:
        mask |= mask << span
        span *= 2
    return mask


def enumerate_bdd(manager: BddManager, root: int) -> TruthTable:
    """The root's complete truth table, in one top-down pass.

    The root holds every assignment, and each node hands those where its
    variable is 1 to its high child and the rest to its low child; the
    table is what reaches ONE (Shannon expansion, Bryant 1986).  A node
    passes its mask on, and drops it, once every parent in the root's
    graph has handed it theirs, so memory follows the widest cut of the
    diagram, not its node count.  Only the node triples are read, not
    the manager's levels.  Refuses more than MAX_ENUM_VARS variables.
    """
    n = manager.n
    if n > MAX_ENUM_VARS:
        raise OracleLimitError(f"refusing to enumerate {n} variables")
    manager._check(root)
    nodes = manager._node
    full = (1 << (1 << n)) - 1
    if root not in nodes:
        return TruthTable(n, full if root == ONE else 0)
    parents: dict[int, int] = {}
    stack = [root]
    while stack:
        for child in nodes[stack.pop()][1:]:
            if child in parents:
                parents[child] += 1
            elif child in nodes:
                parents[child] = 1
                stack.append(child)
    masks = {root: full}
    ready = [root]                # every parent has handed its mask down
    table = 0
    while ready:
        u = ready.pop()
        var, lo, hi = nodes[u]
        mask = masks.pop(u)
        high = mask & _var_mask(n, var, 1)
        for child, part in ((lo, mask ^ high), (hi, high)):
            if child == ONE:
                table |= part
            elif child in nodes:
                held = masks.get(child)
                masks[child] = part if held is None else held | part
                parents[child] -= 1
                if not parents[child]:
                    ready.append(child)
    return TruthTable(n, table)


def joint_probability(tt: TruthTable, var: int, value: int) -> float:
    """Exact p(f=1, x=value) under uniform inputs: a count over 2**n."""
    return conditional_probability(tt, var, value) / 2


def conditional_probability(tt: TruthTable, var: int, value: int) -> float:
    """Exact p(f=1 | x=value) under uniform inputs: a count over 2**(n-1)."""
    n = _table(tt).n
    mask = _var_mask(n, _index(var, n, ValueError, "variable"),
                     _index(value, 2, ValueError, "value"))
    return (tt.bits & mask).bit_count() / (1 << (n - 1))


def _entropy(num: int, den: int) -> float:
    """Binary entropy of the probability num / den, in bits."""
    # int / int is correctly rounded, so p and q are the nearest floats;
    # a probability below the smallest float rounds to 0 and adds nothing.
    p = num / den
    q = (den - num) / den
    if p == 0.0 or q == 0.0:
        return 0.0
    return -(p * math.log2(p) + q * math.log2(q))


def exact_measures(tt: TruthTable, w: VarProbabilities | None = None,
                   subsets: tuple = ()) -> MeasureReport:
    """All measures straight from the table, bypassing the BDD entirely.

    Float weights are dyadic, so every pair is exactly (a0, 2**e - a0)
    over one power of two 2**e (uniform: (1, 1), e = 1).  Every H(f|S)
    sums p(a)·h(p(f=1, a) / p(a)) over the assignments a to S, with p(a)
    and p(f=1, a) integers over powers of 2**e: a count of assignments
    under uniform weights, else a sum of per-assignment products.  Only
    the entropy step is float.  A ``tt`` that is not a TruthTable raises
    ValueError.  Weights that are not VarProbabilities over n variables
    raise WeightError; ``subsets`` or a subset that is not iterable, or
    a subset variable that is not an int in 0..n-1 (a bool, a float),
    raises ValueError.
    """
    n = _table(tt).n
    w = _check_weights(n, w)
    keys = [tuple(sorted({_index(v, n, ValueError, "variable")
                          for v in _entries(subset, ValueError, "a subset")}))
            for subset in _entries(subsets, ValueError, "subsets")]
    bits = tt.bits
    full = (1 << (1 << n)) - 1
    ratios = [p0.as_integer_ratio() for p0, _ in w._pairs]
    one = max((den for _, den in ratios), default=1)   # 2**e; every den divides it
    a0s = [num * one // den for num, den in ratios]
    pairs = [(a0, one - a0) for a0 in a0s]
    weights = None if w.is_uniform() else [
        math.prod(pairs[v][(i >> (n - 1 - v)) & 1] for v in range(n))
        for i in range(1 << n)]

    def mass(mask: int) -> int:
        # p(f=1 and the assignment lies in mask), times one**n
        sel = bits & mask
        if weights is None:
            return sel.bit_count()
        hits = map(int, bin(sel)[:1:-1])   # bit i of sel, lowest first
        return sum(itertools.compress(weights, hits))

    def given(vs: tuple) -> float:
        h = 0.0
        den = one ** len(vs)
        scale = one ** (n - len(vs))
        for values in itertools.product((0, 1), repeat=len(vs)):
            mask = full
            pa = 1
            for v, b in zip(vs, values):
                mask &= _var_mask(n, v, b)
                pa *= pairs[v][b]
            if pa:
                h += pa / den * _entropy(mass(mask), pa * scale)
        return h

    sat = mass(full)
    entropy = _entropy(sat, one ** n)
    cond = {v: given((v,)) for v in range(n)}
    return MeasureReport(
        sat=sat / one ** n, entropy=entropy, cond_entropy=cond,
        mutual_info={v: entropy - h for v, h in cond.items()},
        set_entropy={vs: given(vs) for vs in keys},
        counts=(1 << n, tt.ones) if weights is None else None)


# -- variable-order search ---------------------------------------------------

def _split_table(bits: int, m: int, r: int) -> tuple[int, int]:
    """Cofactor halves of a table over m variables at position r (0 = MSB)."""
    p = m - 1 - r
    stride = 1 << p
    sub = (1 << stride) - 1
    lo = 0
    hi = 0
    for a in range(1 << r):
        lo |= ((bits >> (a * stride * 2)) & sub) << (a * stride)
        hi |= ((bits >> (a * stride * 2 + stride)) & sub) << (a * stride)
    return lo, hi


def _split_level(tables, m: int, r: int) -> tuple[int, set[int]]:
    """Split every table over m variables at position r: the number of
    tables that depend on that variable, and the set of their halves."""
    count = 0
    halves = set()
    for t in tables:
        lo, hi = _split_table(t, m, r)
        count += lo != hi
        halves.add(lo)
        halves.add(hi)
    return count, halves


def bdd_size_for_order(tt: TruthTable, order) -> int:
    """Internal node count of the reduced BDD under an explicit order.

    Counts, level by level, the distinct subfunctions that still depend
    on the level's variable; no BDD is built.
    """
    order = _permutation(order, _table(tt).n, ValueError)
    rem = list(range(tt.n))
    tables = {tt.bits}
    size = 0
    for var in order:
        r = rem.index(var)
        count, tables = _split_level(tables, len(rem), r)
        size += count
        rem.pop(r)
    return size


def best_order_exhaustive(tt: TruthTable) -> tuple[list[int], int]:
    """Size-minimizing variable order and its node count.

    One forward dynamic program over the set S of variables placed above
    (Friedman & Supowit, 1990): the node count of the level below S
    depends only on S, so the best size of S placed first extends to
    each S + {x} by the count of S's subfunctions that depend on x.
    Sets are visited in increasing mask order and each (S, x) is split
    once.  On a tie the later candidate wins, so the smallest variable
    of S goes last.
    """
    n = _table(tt).n
    if n > MAX_ORDER_SEARCH_VARS:
        raise OracleLimitError(f"refusing order search over {n} variables")
    tables = {0: {tt.bits}}       # placed-set mask -> its subfunctions
    best = {0: (0, [])}           # mask -> (size, best order of the set)
    for mask in range(1 << n):
        size, order = best[mask]
        subfunctions = tables.pop(mask)
        m = n - mask.bit_count()
        r = 0                     # rank of var among the unplaced variables
        for var in range(n):
            if mask >> var & 1:
                continue
            count, halves = _split_level(subfunctions, m, r)
            r += 1
            nxt = mask | 1 << var
            tables.setdefault(nxt, halves)
            if nxt not in best or size + count <= best[nxt][0]:
                best[nxt] = (size + count, order + [var])
    size, order = best[(1 << n) - 1]
    return order, size

"""Brute-force ground truth, independent of the BDD code paths.

Functions here work on flat truth tables stored as integer bitmasks.
Probabilities are exact rationals, from assignment counts under uniform
inputs and from exact per-assignment weights otherwise, and only become
floats at the entropy step, so a floating-point bug in the graph
algorithms cannot hide behind an identical bug here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .manager import ONE, ZERO, BddManager
from .measures import MeasureReport, VarProbabilities

MAX_ENUM_VARS = 24
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
        if self.n < 0:
            raise ValueError("negative variable count")
        if self.bits < 0 or self.bits >> (1 << self.n):
            raise ValueError("table bits out of range for n")

    @classmethod
    def from_string(cls, s: str) -> "TruthTable":
        s = s.strip()
        length = len(s)
        if length == 0 or length & (length - 1):
            raise ValueError(f"table length {length} is not a power of two")
        if set(s) - {"0", "1"}:
            raise ValueError("table may contain only 0 and 1")
        bits = 0
        for i, ch in enumerate(s):
            if ch == "1":
                bits |= 1 << i
        return cls(length.bit_length() - 1, bits)

    def to_string(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0"
                       for i in range(1 << self.n))

    def value(self, index: int) -> int:
        return (self.bits >> index) & 1

    @property
    def assignments(self) -> int:
        return 1 << self.n

    @property
    def ones(self) -> int:
        return self.bits.bit_count()

    def sat_probability(self) -> Fraction:
        return Fraction(self.ones, self.assignments)


@functools.lru_cache(maxsize=4096)
def _var_mask(n: int, var: int, value: int) -> int:
    """Bitmask over assignment indices where the variable takes ``value``."""
    stride = 1 << (n - 1 - var)
    block = (1 << stride) - 1
    mask = 0
    for base in range(0, 1 << n, stride * 2):
        mask |= block << (base + (stride if value else 0))
    return mask


def enumerate_bdd(manager: BddManager, root: int) -> TruthTable:
    """Evaluate the BDD on every assignment (resource guarded)."""
    n = manager.n
    if n > MAX_ENUM_VARS:
        raise OracleLimitError(f"refusing to enumerate {n} variables")
    manager._check(root)
    nodes = manager._node
    bits = 0
    for i in range(1 << n):
        u = root
        while u != ZERO and u != ONE:
            var, lo, hi = nodes[u]
            u = hi if (i >> (n - 1 - var)) & 1 else lo
        if u == ONE:
            bits |= 1 << i
    return TruthTable(n, bits)


def _check_var(n: int, var) -> int:
    if isinstance(var, bool) or not isinstance(var, int) or not 0 <= var < n:
        raise ValueError(f"unknown variable {var!r} for {n} variables")
    return var


def joint_probability(tt: TruthTable, var: int, value: int) -> Fraction:
    """Exact p(f=1, x=value) under uniform inputs."""
    mask = _var_mask(tt.n, _check_var(tt.n, var), value)
    return Fraction((tt.bits & mask).bit_count(), tt.assignments)


def conditional_probability(tt: TruthTable, var: int, value: int) -> Fraction:
    """Exact p(f=1 | x=value) under uniform inputs."""
    mask = _var_mask(tt.n, _check_var(tt.n, var), value)
    return Fraction((tt.bits & mask).bit_count(), 1 << (tt.n - 1))


def _exact_pairs(w: VarProbabilities, n: int) -> list[tuple[Fraction, Fraction]]:
    # Renormalize so each pair sums to exactly 1 as rationals; the float
    # pairs already do so within 1e-12.
    pairs = []
    for v in range(n):
        p0 = Fraction(w.p0(v))
        pairs.append((p0, 1 - p0))
    return pairs


def _entropy_of_fraction(p: Fraction) -> float:
    if p <= 0 or p >= 1:
        return 0.0
    pf = float(p)
    qf = float(1 - p)
    return -(pf * math.log2(pf) + qf * math.log2(qf))


def exact_measures(tt: TruthTable, w: VarProbabilities | None = None,
                   subsets: tuple = ()) -> MeasureReport:
    """All measures straight from the table, bypassing the BDD entirely.

    Every H(f|S) sums p(a)·h(p(f=1, a) / p(a)) over the assignments a
    to S, with p(f=1, a) and p(a) exact rationals; only the entropy step
    is float.  Uniform weights count assignments; other weights sum
    exact per-assignment products over the satisfying assignments.  A
    subset variable outside 0..n-1, or a bool, raises ValueError.
    """
    n = tt.n
    keys = [tuple(sorted({_check_var(n, v) for v in subset})) for subset in subsets]
    bits = tt.bits
    full = (1 << (1 << n)) - 1
    if w is None or w.is_uniform():
        pairs = [(Fraction(1, 2), Fraction(1, 2))] * n
        weights = None
    else:
        pairs = _exact_pairs(w, n)
        weights = [math.prod(pairs[v][(i >> (n - 1 - v)) & 1] for v in range(n))
                   for i in range(1 << n)]

    def mass(mask: int) -> Fraction:
        # p(f=1 and the assignment lies in mask)
        sel = bits & mask
        if weights is None:
            return Fraction(sel.bit_count(), 1 << n)
        hits = map(int, bin(sel)[:1:-1])   # bit i of sel, lowest first
        return sum(itertools.compress(weights, hits), Fraction(0))

    def given(vs: tuple) -> float:
        h = 0.0
        for values in itertools.product((0, 1), repeat=len(vs)):
            mask = full
            pa = Fraction(1)
            for v, b in zip(vs, values):
                mask &= _var_mask(n, v, b)
                pa *= pairs[v][b]
            if pa == 0:
                continue
            h += float(pa) * _entropy_of_fraction(mass(mask) / pa)
        return h

    sat = mass(full)
    entropy = _entropy_of_fraction(sat)
    cond = {v: given((v,)) for v in range(n)}
    return MeasureReport(
        sat=float(sat), entropy=entropy, cond_entropy=cond,
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


def bdd_size_for_order(tt: TruthTable, order) -> int:
    """Internal node count of the reduced BDD under an explicit order.

    Counts, level by level, the distinct subfunctions that still depend
    on the level's variable; no BDD is built.
    """
    order = list(order)
    if sorted(order) != list(range(tt.n)):
        raise ValueError(f"order must be a permutation of 0..{tt.n - 1}")
    rem = list(range(tt.n))
    tables = [tt.bits]
    size = 0
    for var in order:
        r = rem.index(var)
        m = len(rem)
        nxt = set()
        for t in tables:
            lo, hi = _split_table(t, m, r)
            if lo != hi:
                size += 1
            nxt.add(lo)
            nxt.add(hi)
        tables = sorted(nxt)
        rem.pop(r)
    return size


def best_order_exhaustive(tt: TruthTable) -> tuple[list[int], int]:
    """Size-minimizing variable order and its node count.

    Every permutation is covered: literally for n <= 6, and through the
    prefix-set recurrence for n in {7, 8} (the node count of a level
    depends only on the set of variables above it, so shared prefixes
    collapse).  Both routes agree and are cross-checked in the tests.
    """
    n = tt.n
    if n > MAX_ORDER_SEARCH_VARS:
        raise OracleLimitError(f"refusing order search over {n} variables")
    if n <= 1:
        return list(range(n)), bdd_size_for_order(tt, range(n))
    if n <= 6:
        best_order = None
        best_size = None
        for perm in itertools.permutations(range(n)):
            size = bdd_size_for_order(tt, perm)
            if best_size is None or size < best_size:
                best_size = size
                best_order = list(perm)
        return best_order, best_size
    return _best_order_prefix_dp(tt)


def _best_order_prefix_dp(tt: TruthTable) -> tuple[list[int], int]:
    n = tt.n
    full = (1 << n) - 1
    tables: dict[int, tuple[int, ...]] = {0: (tt.bits,)}
    best = {0: 0}
    choice: dict[int, int] = {}

    def position(mask: int, var: int) -> int:
        # Rank of var among the variables not yet placed by ``mask``.
        below = ((1 << var) - 1) & ~mask
        return below.bit_count()

    for mask in range(1, full + 1):
        # Derive this prefix's subfunction set from any one-smaller prefix.
        x = (mask & -mask).bit_length() - 1
        prev = mask ^ (1 << x)
        m = n - prev.bit_count()
        r = position(prev, x)
        nxt = set()
        for t in tables[prev]:
            lo, hi = _split_table(t, m, r)
            nxt.add(lo)
            nxt.add(hi)
        tables[mask] = tuple(sorted(nxt))
        best_cost = None
        best_var = None
        for var in range(n):
            bit = 1 << var
            if not mask & bit:
                continue
            prev_v = mask ^ bit
            m_v = n - prev_v.bit_count()
            r_v = position(prev_v, var)
            count = 0
            for t in tables[prev_v]:
                lo, hi = _split_table(t, m_v, r_v)
                if lo != hi:
                    count += 1
            cost = best[prev_v] + count
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_var = var
        best[mask] = best_cost
        choice[mask] = best_var
    order_rev = []
    mask = full
    while mask:
        var = choice[mask]
        order_rev.append(var)
        mask ^= 1 << var
    return order_rev[::-1], best[full]

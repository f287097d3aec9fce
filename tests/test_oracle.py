import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddinfo import (
    ONE, ZERO, BddManager, TruthTable, VarProbabilities, WeightError,
    bdd_size_for_order, best_order_exhaustive, enumerate_bdd, exact_measures,
    sift,
)
from bddinfo.oracle import (
    MAX_ENUM_VARS, OracleLimitError, _var_mask, conditional_probability, joint_probability,
)

from conftest import EXAMPLE1_VECTOR, H_F, H_F_X1, H_F_X1X2, H_F_X2, random_function


def test_enumerate_example1(example1):
    manager, root = example1
    tt = enumerate_bdd(manager, root)
    assert tt.to_string() == EXAMPLE1_VECTOR
    assert tt.sat_probability() == Fraction(5, 8)


def test_enumerate_terminal():
    m = BddManager(3)
    from bddinfo import ONE
    assert enumerate_bdd(m, ONE).to_string() == "11111111"


def test_enumerate_refuses_large():
    m = BddManager(25)
    from bddinfo import ONE
    with pytest.raises(OracleLimitError):
        enumerate_bdd(m, ONE)
    # A table over more than MAX_ENUM_VARS variables is refused when it
    # is made, before any table function builds an int of 2**n bits.
    for n in (MAX_ENUM_VARS + 1, 40):
        with pytest.raises(OracleLimitError, match=f"over {n} variables"):
            TruthTable(n, 0)
    assert TruthTable(MAX_ENUM_VARS, 0).ones == 0


def test_truth_table_string_roundtrip():
    tt = TruthTable.from_string(EXAMPLE1_VECTOR)
    assert tt.n == 3
    assert tt.to_string() == EXAMPLE1_VECTOR
    assert tt.value(0) == 1 and tt.value(1) == 0 and tt.value(7) == 1
    for bits in (-1, 1 << 8):
        with pytest.raises(ValueError):
            TruthTable(3, bits)
    for n, bits in ((1, True), (2, 1.5)):
        with pytest.raises(ValueError):
            TruthTable(n, bits)
    for text in ("", "101", "10a1"):
        with pytest.raises(ValueError):
            TruthTable.from_string(text)


def test_truth_table_string_roundtrip_at_16_variables(rng):
    tt = TruthTable(16, rng.getrandbits(1 << 16))
    text = tt.to_string()
    assert len(text) == 1 << 16
    assert all(text[i] == str(tt.value(i)) for i in range(1 << 16))
    assert TruthTable.from_string(text) == tt


def _assignment(n, i):
    """Assignment index i by variable id, variable 0 most significant."""
    return [(i >> (n - 1 - v)) & 1 for v in range(n)]


def test_enumerate_matches_evaluation_at_every_assignment(rng):
    """The table against a walk from the root per assignment: seeded
    managers over shuffled orders, with roots that share nodes, an XOR
    of two roots and both terminals, once as built and once after
    ``sift``, whose rewritten nodes keep their handles while their
    children can be newer, so handle order is not children-first."""
    for trial in range(60):
        n = trial % 10
        order = list(range(n))
        rng.shuffle(order)
        m = BddManager(n, order=order)
        f, g = (m.build_from_truth_vector(random_function(rng, n)) for _ in range(2))
        shared = m.apply("and", f, g)
        roots = [f, g, shared, m.apply("xor", f, g)]
        for sifted in (False, True):
            if sifted:
                sift(m, roots)
            for root in roots + [ZERO, ONE]:
                tt = enumerate_bdd(m, root)
                assert tt.n == n
                assert [tt.value(i) for i in range(1 << n)] == \
                    [m.evaluate(root, _assignment(n, i)) for i in range(1 << n)]


def test_var_mask_matches_a_per_index_reference():
    for n in range(1, 13):
        for var in range(n):
            for value in (0, 1):
                want = sum(1 << i for i in range(1 << n)
                           if (i >> (n - 1 - var)) & 1 == value)
                assert _var_mask(n, var, value) == want, (n, var, value)


def test_wide_tabulation_keeps_only_the_cut(rng):
    """A 20-variable parity chain: the table is right, and a second call
    (the masks cached by the first) holds a few 128 KiB tables at once,
    not one per node (39 nodes, about 5 MB)."""
    n = 20
    m = BddManager(n)
    root = m.literal(0)
    for v in range(1, n):
        root = m.apply("xor", root, m.literal(v))
    tt = enumerate_bdd(m, root)
    assert tt.ones == 1 << (n - 1)
    for _ in range(64):
        i = rng.getrandbits(n)
        assert tt.value(i) == m.evaluate(root, _assignment(n, i))
    tracemalloc.start()
    try:
        assert enumerate_bdd(m, root) == tt
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024    # 16 tables of 2**20 bits


def test_enumerate_memory_follows_the_cut():
    """The 22-variable parity chain (43 nodes) has two nodes per level,
    so a call after the first (which fills the mask cache) holds a few
    tables of 2**22 bits at once, not one per node."""
    n = 22
    m = BddManager(n)
    root = m.literal(0)
    for v in range(1, n):
        root = m.apply("xor", root, m.literal(v))
    assert len(m._reachable([root])) == 2 * n - 1
    tt = enumerate_bdd(m, root)
    tracemalloc.start()
    try:
        assert enumerate_bdd(m, root) == tt
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * (1 << n) // 8


def test_exact_measures_example1():
    tt = TruthTable.from_string(EXAMPLE1_VECTOR)
    report = exact_measures(tt, subsets=((0, 1),))
    assert report.entropy == pytest.approx(H_F, abs=1e-12)
    assert report.cond_entropy[0] == pytest.approx(H_F_X1, abs=1e-12)
    assert report.cond_entropy[1] == pytest.approx(H_F_X2, abs=1e-12)
    assert report.set_entropy[(0, 1)] == pytest.approx(H_F_X1X2, abs=1e-12)
    assert report.counts == (8, 5)
    assert joint_probability(tt, 1, 1) == Fraction(1, 4)
    assert conditional_probability(tt, 1, 0) == Fraction(3, 4)


def test_uniform_probabilities_are_exact_floats(rng):
    """p(f=1), p(f=1, x=b) and p(f=1 | x=b) are floats equal to their
    counts over 2**n and 2**(n-1), on seeded tables at n = 1..12."""
    for n in range(1, 13):
        for _ in range(3):
            tt = TruthTable(n, rng.getrandbits(1 << n))
            got = tt.sat_probability()
            assert type(got) is float and got == Fraction(tt.ones, 1 << n)
            for var in range(n):
                for b in (0, 1):
                    count = sum(tt.value(i) for i in range(1 << n)
                                if (i >> (n - 1 - var)) & 1 == b)
                    joint = joint_probability(tt, var, b)
                    conditional = conditional_probability(tt, var, b)
                    assert type(joint) is float and type(conditional) is float
                    assert joint == Fraction(count, 1 << n), (n, var, b)
                    assert conditional == Fraction(count, 1 << (n - 1)), (n, var, b)


def test_exact_measures_constant():
    tt = TruthTable.from_string("1111")
    report = exact_measures(tt)
    assert report.entropy == 0.0
    assert all(h == 0.0 for h in report.cond_entropy.values())


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_conditioning_never_increases_entropy(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    report = exact_measures(TruthTable(n, bits))
    for h in report.cond_entropy.values():
        assert h <= report.entropy + 1e-12


def test_weighted_exact_measures_match_uniform():
    tt = TruthTable.from_string(EXAMPLE1_VECTOR)
    w = VarProbabilities([(0.5, 0.5)] * 3)
    uni = exact_measures(tt)
    # explicit uniform weights must take the weighted path to the same numbers
    weighted = exact_measures(tt, VarProbabilities([(0.5, 0.5)] * 3), subsets=((0,),))
    assert weighted.entropy == pytest.approx(uni.entropy, abs=1e-12)
    for v in range(3):
        assert weighted.cond_entropy[v] == pytest.approx(uni.cond_entropy[v], abs=1e-12)
    assert w.is_uniform()
    # Forcing one variable leaves uniform weights, so the weighted mass sum
    # must reproduce the count route's conditional probability exactly.
    for v in range(3):
        for b in (0, 1):
            forced = VarProbabilities.uniform(3).forced(v, b)
            assert not forced.is_uniform()
            report = exact_measures(tt, forced)
            assert report.counts is None
            assert report.sat == float(conditional_probability(tt, v, b))


def test_weighted_exact_measures_forced():
    tt = TruthTable.from_string(EXAMPLE1_VECTOR)
    w = VarProbabilities.uniform(3).forced(1, 0)
    report = exact_measures(tt, w)
    # With x2 pinned to 0, f reduces to x1 or not x3: p = 3/4.
    assert report.sat == pytest.approx(0.75, abs=1e-12)


def _brute_force_given(tt, pairs, vs):
    """H(f|vs) from an explicit walk over every assignment."""
    n = tt.n
    groups = {}
    for i in range(1 << n):
        x = [(i >> (n - 1 - v)) & 1 for v in range(n)]
        p = Fraction(1)
        for v in range(n):
            p *= pairs[v][x[v]]
        mass = groups.setdefault(tuple(x[v] for v in vs), [Fraction(0), Fraction(0)])
        mass[0] += p
        if tt.value(i):
            mass[1] += p
    h = 0.0
    for pa, ones in groups.values():
        q = ones / pa if pa else Fraction(0)
        if 0 < q < 1 and float(q) and float(1 - q):   # else below float range
            h -= float(pa) * (float(q) * math.log2(q) + float(1 - q) * math.log2(1 - q))
    return h


DYADIC_PAIRS = [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.25, 0.75), (0.75, 0.25),
                (0.125, 0.875), (0.625, 0.375)]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_exact_measures_match_brute_force(data):
    n = data.draw(st.integers(min_value=0, max_value=5))
    tt = TruthTable(n, data.draw(st.integers(min_value=0,
                                             max_value=(1 << (1 << n)) - 1)))
    weighted = data.draw(st.booleans())
    w = (VarProbabilities(data.draw(st.lists(st.sampled_from(DYADIC_PAIRS),
                                             min_size=n, max_size=n)))
         if weighted else None)
    subsets = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n + 1)
        if n else st.just([]), max_size=4))
    pairs = ([tuple(map(Fraction, w.pair(v))) for v in range(n)] if weighted
             else [(Fraction(1, 2), Fraction(1, 2))] * n)
    report = exact_measures(tt, w, subsets=tuple(map(tuple, subsets)))
    entropy = _brute_force_given(tt, pairs, ())
    sat = sum(math.prod(pairs[v][(i >> (n - 1 - v)) & 1] for v in range(n))
              for i in range(1 << n) if tt.value(i))
    assert report.sat == float(sat)
    assert report.entropy == pytest.approx(entropy, abs=1e-12)
    assert sorted(report.cond_entropy) == list(range(n))
    for v in range(n):
        h = _brute_force_given(tt, pairs, (v,))
        assert report.cond_entropy[v] == pytest.approx(h, abs=1e-12)
        assert report.mutual_info[v] == pytest.approx(entropy - h, abs=1e-12)
    keys = {tuple(sorted(set(subset))) for subset in subsets}
    assert set(report.set_entropy) == keys
    for vs in keys:
        assert report.set_entropy[vs] == pytest.approx(
            _brute_force_given(tt, pairs, vs), abs=1e-12)


@pytest.mark.parametrize("var", [True, False, -1, 3, 1.0, "0", 0.5])
def test_oracle_rejects_unknown_variables(var):
    """Every value here is refused as a variable and, as are 2 and -1,
    as a bit: a bool, 1.0 or "0" must not be read as 0 or 1."""
    tt = TruthTable.from_string(EXAMPLE1_VECTOR)
    with pytest.raises(ValueError):
        exact_measures(tt, subsets=((var,),))
    with pytest.raises(ValueError):
        exact_measures(tt, VarProbabilities([(0.25, 0.75)] * 3),
                       subsets=((0, var),))
    with pytest.raises(ValueError):
        joint_probability(tt, var, 1)
    with pytest.raises(ValueError):
        conditional_probability(tt, var, 1)
    for bit in (var, 2):
        with pytest.raises(ValueError):
            joint_probability(tt, 0, bit)
        with pytest.raises(ValueError):
            conditional_probability(tt, 0, bit)


@pytest.mark.parametrize("subsets", [(1,), ((0,), 2), 1, None])
def test_oracle_rejects_non_iterable_subsets(subsets):
    """A subset, or the subsets argument, that is not iterable raises
    ValueError, not Python's TypeError."""
    tt = TruthTable.from_string(EXAMPLE1_VECTOR)
    with pytest.raises(ValueError, match="must be iterable"):
        exact_measures(tt, subsets=subsets)


@pytest.mark.parametrize("call", [
    lambda tt: exact_measures(tt),
    lambda tt: best_order_exhaustive(tt),
    lambda tt: bdd_size_for_order(tt, [0, 1, 2]),
    lambda tt: joint_probability(tt, 0, 1),
    lambda tt: conditional_probability(tt, 0, 1),
], ids=["exact_measures", "best_order_exhaustive", "bdd_size_for_order",
        "joint_probability", "conditional_probability"])
def test_oracle_refuses_tables_that_are_not_truth_tables(call):
    """A table argument that is not a TruthTable raises ValueError, not
    Python's AttributeError."""
    for table in (5, EXAMPLE1_VECTOR, None):
        with pytest.raises(ValueError, match="expected a TruthTable"):
            call(table)


def test_exact_measures_with_extreme_dyadic_weights():
    """Weights far apart in scale share one power-of-two denominator."""
    w = VarProbabilities([(5e-324, 1.0), (1 - 2**-53, 2**-53), (0.1, 0.9)])
    pairs = [(Fraction(w.p0(v)), 1 - Fraction(w.p0(v))) for v in range(3)]
    for bits in range(256):
        tt = TruthTable(3, bits)
        report = exact_measures(tt, w, subsets=((0, 1), (0, 1, 2)))
        sat = sum(math.prod(pairs[v][(i >> (2 - v)) & 1] for v in range(3))
                  for i in range(8) if tt.value(i))
        assert report.sat == float(sat)
        assert report.entropy == pytest.approx(
            _brute_force_given(tt, pairs, ()), abs=1e-12)
        for v in range(3):
            assert report.cond_entropy[v] == pytest.approx(
                _brute_force_given(tt, pairs, (v,)), abs=1e-12)
        for vs in ((0, 1), (0, 1, 2)):
            assert report.set_entropy[vs] == pytest.approx(
                _brute_force_given(tt, pairs, vs), abs=1e-12)


@pytest.mark.parametrize("w", [
    [(0.5, 0.5)] * 3,
    VarProbabilities([(0.25, 0.75)]),
    VarProbabilities([(0.5, 0.5)]),
    VarProbabilities([(0.25, 0.75)] * 5),
    VarProbabilities([]),
])
def test_exact_measures_rejects_a_mismatched_weighting(w):
    with pytest.raises(WeightError):
        exact_measures(TruthTable.from_string(EXAMPLE1_VECTOR), w)


def test_bdd_size_for_order_rejects_bools():
    tt = TruthTable.from_string(EXAMPLE1_VECTOR)
    for order in ([True, False, 2], [0, True, 2], [2, 1, False],
                  [0.0, 1, 2], [0.5, 1, 2], [2, "1", 0]):
        with pytest.raises(ValueError):
            bdd_size_for_order(tt, order)
    for n in (True, False, 2.0, 0.5, "0"):
        with pytest.raises(ValueError):
            TruthTable(n, 1)


def test_bdd_size_for_order_example1():
    tt = TruthTable.from_string(EXAMPLE1_VECTOR)
    sizes = {p: bdd_size_for_order(tt, p) for p in itertools.permutations(range(3))}
    assert sizes[(0, 1, 2)] == 3
    assert sizes[(0, 2, 1)] == 3
    assert sizes[(1, 0, 2)] == 4
    assert min(sizes.values()) == 3


def test_best_order_example1():
    tt = TruthTable.from_string(EXAMPLE1_VECTOR)
    order, size = best_order_exhaustive(tt)
    assert size == 3
    assert bdd_size_for_order(tt, order) == 3


def test_best_order_symmetric_function():
    # XOR of three variables: every order gives the same size
    bits = "".join(str((i ^ (i >> 1) ^ (i >> 2)) & 1) for i in range(8))
    tt = TruthTable.from_string(bits)
    sizes = {bdd_size_for_order(tt, p) for p in itertools.permutations(range(3))}
    assert len(sizes) == 1
    _, best = best_order_exhaustive(tt)
    assert best == sizes.pop()


def test_best_order_single_variable():
    tt = TruthTable.from_string("01")
    assert best_order_exhaustive(tt) == ([0], 1)


def test_best_order_refuses_large():
    with pytest.raises(OracleLimitError):
        best_order_exhaustive(TruthTable(9, 0))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_prefix_dp_equals_brute_force(data):
    n = data.draw(st.integers(min_value=0, max_value=6))
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    tt = TruthTable(n, bits)
    brute = min(bdd_size_for_order(tt, p)
                for p in itertools.permutations(range(n)))
    order, size = best_order_exhaustive(tt)
    assert size == brute
    assert bdd_size_for_order(tt, order) == size


def test_best_order_seven_variables_against_every_permutation():
    # f = x0·x4 + x1·x5 + x2·x6 xor x3: pairing the variables matters.
    x = [[(i >> (6 - v)) & 1 for v in range(7)] for i in range(128)]
    vector = "".join(str((a[0] & a[4] | a[1] & a[5] | a[2] & a[6]) ^ a[3]) for a in x)
    tt = TruthTable.from_string(vector)
    sizes = [bdd_size_for_order(tt, p) for p in itertools.permutations(range(7))]
    order, size = best_order_exhaustive(tt)
    assert size == min(sizes)
    assert size < max(sizes)
    assert bdd_size_for_order(tt, order) == size


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=40, deadline=None)
def test_size_counting_matches_real_build(n, data):
    """The subfunction count must equal the node count of an actual build."""
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    order = data.draw(st.permutations(range(n)))
    tt = TruthTable(n, bits)
    m = BddManager(n, order=list(order))
    root = m.build_from_truth_vector(tt.to_string())
    assert m.count_nodes([root]) == bdd_size_for_order(tt, order)


def test_oracle_agreement_exhaustive_small():
    """Every function of up to 3 variables, all measures, both routes."""
    from bddinfo import (all_joint_probabilities, conditional_entropy_var,
                         entropy, weighted_sat_probability)
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            tt = TruthTable(n, bits)
            m = BddManager(n)
            root = m.build_from_truth_vector(tt.to_string())
            report = exact_measures(tt)
            assert weighted_sat_probability(m, root) == \
                pytest.approx(float(tt.sat_probability()), abs=1e-9)
            assert entropy(m, root) == pytest.approx(report.entropy, abs=1e-9)
            prof = all_joint_probabilities(m, root)
            for v in range(n):
                assert conditional_entropy_var(m, root, v) == \
                    pytest.approx(report.cond_entropy[v], abs=1e-9)
                for b in (0, 1):
                    assert prof.joint[v][b] == pytest.approx(
                        float(joint_probability(tt, v, b)), abs=1e-9)


def test_best_order_not_above_spot_checks(rng):
    for _ in range(20):
        n = rng.randint(2, 6)
        tt = TruthTable.from_string(random_function(rng, n))
        _, best = best_order_exhaustive(tt)
        order = list(range(n))
        rng.shuffle(order)
        assert best <= bdd_size_for_order(tt, order)

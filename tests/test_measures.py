import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddinfo import (
    AND, ONE, OR, XOR, ZERO, BddManager, UsageError, VarProbabilities,
    WeightError,
    all_joint_probabilities, conditional_entropy_set, conditional_entropy_var,
    entropy, enumerate_bdd, exact_measures, info_reorder, measure_report,
    mutual_information, reach_probabilities, weighted_sat_probability,
)

from bddinfo.cli import load_circuit

from conftest import DATA, EXAMPLE1_VECTOR, H_F, H_F_X1, H_F_X1X2, H_F_X2

TOL = 1e-9


def test_weights_validation():
    with pytest.raises(WeightError):
        VarProbabilities([(0.6, 0.6)])
    with pytest.raises(WeightError):
        VarProbabilities([(-0.1, 1.1)])
    # Each entry must be a pair of real numbers: not a bare number, not
    # one or three of them, and neither None, a str nor a bool.
    for pairs in ([0.5], [(0.5,)], [(0.5, 0.5, 0.0)], [(None, 1)],
                  [("0.5", "0.5")], [(True, False)]):
        with pytest.raises(WeightError):
            VarProbabilities(pairs)
    w = VarProbabilities.uniform(3)
    assert w.pair(1) == (0.5, 0.5)
    assert w == VarProbabilities([(0.5, 0.5)] * 3) != w.forced(0, 1)
    assert w != [(0.5, 0.5)] * 3
    assert repr(w.forced(0, 1)) == \
        "VarProbabilities([(0.0, 1.0), (0.5, 0.5), (0.5, 0.5)])"
    assert w.forced(1, 0).pair(1) == (1.0, 0.0)
    assert w.forced(1, 1).pair(1) == (0.0, 1.0)
    for bit in (2, -1, True, 0.5, 1.0, "0"):
        with pytest.raises(WeightError):
            w.forced(1, bit)
    # A count is an int, even once uniform(1) and uniform(2) are cached.
    assert len(VarProbabilities.uniform(1)) == 1
    assert len(VarProbabilities.uniform(2)) == 2
    for n in (True, 2.0, -1):
        with pytest.raises(WeightError):
            VarProbabilities.uniform(n)


@pytest.mark.parametrize("var", [-1, 3, True, 0.5, 1.0, "0"])
def test_forced_rejects_unknown_variables(var):
    """-1 would pin the last variable, 3 would raise IndexError, True
    would pin variable 1, and 1.0 or "0" is not an index at all; the
    pair readers refuse the same indices."""
    w = VarProbabilities([(0.25, 0.75), (0.5, 0.5), (1.0, 0.0)])
    for read in (lambda: w.forced(var, 1), lambda: w.pair(var),
                 lambda: w.p0(var), lambda: w.p1(var)):
        with pytest.raises(WeightError):
            read()


def test_bools_are_not_variable_indices(example1):
    """True is an int equal to 1, but not a variable index; False would
    merge with 0 in a set of variables."""
    manager, root = example1
    with pytest.raises(UsageError):
        conditional_entropy_set(manager, root, [0, False])
    for var in (True, 0.5, 1.0, "0"):
        with pytest.raises(UsageError):
            conditional_entropy_var(manager, root, var)
        with pytest.raises(UsageError):
            mutual_information(manager, root, var)
        with pytest.raises(UsageError):
            measure_report(manager, root, subsets=[(var,)])
        with pytest.raises(UsageError):
            manager.mk_node(var, ZERO, ONE)


def test_weights_length_checked(example1):
    manager, root = example1
    with pytest.raises(WeightError):
        weighted_sat_probability(manager, root, VarProbabilities.uniform(2))


def test_weights_must_be_var_probabilities(example1):
    manager, root = example1
    pairs = [(0.5, 0.5)] * manager.n
    with pytest.raises(WeightError):
        entropy(manager, root, pairs)
    with pytest.raises(WeightError):
        info_reorder(manager, weights=pairs)


def test_sat_probability_example1(example1):
    manager, root = example1
    assert weighted_sat_probability(manager, root) == pytest.approx(0.625, abs=0)


def test_forced_weights_give_conditionals(example1):
    manager, root = example1
    w = VarProbabilities.uniform(3)
    assert weighted_sat_probability(manager, root, w.forced(1, 0)) == \
        pytest.approx(0.75, abs=TOL)
    assert weighted_sat_probability(manager, root, w.forced(1, 1)) == \
        pytest.approx(0.5, abs=TOL)


def test_sat_probability_terminals():
    m = BddManager(2)
    assert weighted_sat_probability(m, ONE) == 1.0
    assert weighted_sat_probability(m, ZERO) == 0.0


def test_reach_example1(example1):
    manager, root = example1
    reach = reach_probabilities(manager, root)
    assert reach[root] == 1.0
    assert reach[ONE] == pytest.approx(0.625, abs=TOL)
    # the node testing x3 sits two uniform branches below the root
    x3_nodes = [u for u in manager._reachable([root]) if manager.var_of(u) == 2]
    assert len(x3_nodes) == 1
    assert reach[x3_nodes[0]] == pytest.approx(0.25, abs=TOL)
    assert all(-TOL <= p <= 1 + TOL for p in reach.values())


def test_reach_of_terminal_root():
    m = BddManager(2)
    assert reach_probabilities(m, ONE) == {ONE: 1.0}


def test_joint_profile_example1(example1):
    manager, root = example1
    prof = all_joint_probabilities(manager, root)
    assert prof.joint[1][1] == pytest.approx(0.25, abs=TOL)
    assert prof.conditional[1][1] == pytest.approx(0.5, abs=TOL)
    assert prof.conditional[1][0] == pytest.approx(0.75, abs=TOL)
    for var in range(3):
        assert prof.joint[var][0] + prof.joint[var][1] == \
            pytest.approx(prof.sat, abs=TOL)


def test_joint_independent_variable():
    m = BddManager(3)
    f = m.literal(0)   # ignores x2, x3
    prof = all_joint_probabilities(m, f)
    assert prof.joint[2][1] == pytest.approx(0.5 * prof.sat, abs=TOL)
    assert prof.joint[2][0] == pytest.approx(0.5 * prof.sat, abs=TOL)


def test_conditional_undefined_when_weight_zero():
    m = BddManager(2)
    f = m.literal(0)
    w = VarProbabilities.uniform(2).forced(1, 1)   # p(x2=0) = 0
    prof = all_joint_probabilities(m, f, w)
    assert prof.conditional[1][0] is None
    assert prof.conditional[1][1] is not None


def test_entropy_example1(example1):
    manager, root = example1
    assert entropy(manager, root) == pytest.approx(H_F, abs=1e-12)


def test_entropy_trivia():
    m = BddManager(1)
    assert entropy(m, ZERO) == 0.0
    assert entropy(m, ONE) == 0.0
    assert entropy(m, m.literal(0)) == 1.0


def test_conditional_entropy_example1(example1):
    manager, root = example1
    assert conditional_entropy_var(manager, root, 0) == pytest.approx(H_F_X1, abs=1e-12)
    assert conditional_entropy_var(manager, root, 1) == pytest.approx(H_F_X2, abs=1e-12)
    assert conditional_entropy_var(manager, root, 2) == pytest.approx(H_F_X2, abs=1e-12)


def test_conditional_entropy_independent_var():
    m = BddManager(3)
    f = m.apply("and", m.literal(0), m.literal(1))
    assert conditional_entropy_var(m, f, 2) == pytest.approx(entropy(m, f), abs=TOL)


def test_conditional_entropy_self():
    m = BddManager(2)
    f = m.literal(0)
    assert conditional_entropy_var(m, f, 0) == 0.0


def test_set_conditional_example1(example1):
    manager, root = example1
    assert conditional_entropy_set(manager, root, [0, 1]) == \
        pytest.approx(H_F_X1X2, abs=TOL)
    assert conditional_entropy_set(manager, root, []) == \
        pytest.approx(entropy(manager, root), abs=TOL)
    assert conditional_entropy_set(manager, root, [0, 1, 2]) == \
        pytest.approx(0.0, abs=TOL)


def test_mutual_information_example1(example1):
    manager, root = example1
    assert mutual_information(manager, root, 0) == \
        pytest.approx(H_F - H_F_X1, abs=1e-12)
    m = BddManager(2)
    assert mutual_information(m, m.literal(0), 1) == pytest.approx(0.0, abs=TOL)
    assert mutual_information(m, m.literal(0), 0) == pytest.approx(1.0, abs=TOL)


def test_theorem_average_matches_joint_route(example1):
    """The cofactor average must equal the direct double sum over the
    joint probabilities."""
    manager, root = example1
    prof = all_joint_probabilities(manager, root)
    for var in range(3):
        direct = 0.0
        for b in (0, 1):
            j1 = prof.joint[var][b]
            j0 = 0.5 - j1
            for j in (j0, j1):
                if j > 0:
                    direct -= j * math.log2(j / 0.5)
        assert conditional_entropy_var(manager, root, var) == \
            pytest.approx(direct, abs=TOL)


def test_measure_report(example1):
    manager, root = example1
    report = measure_report(manager, root, subsets=[(0, 1)])
    assert report.entropy == pytest.approx(H_F, abs=1e-12)
    assert report.cond_entropy[0] == pytest.approx(H_F_X1, abs=1e-12)
    assert report.set_entropy[(0, 1)] == pytest.approx(0.25, abs=TOL)
    assert report.mutual_info[2] == pytest.approx(H_F - H_F_X2, abs=TOL)
    assert report.sat == pytest.approx(0.625, abs=0)


@pytest.mark.parametrize("n", [0, 1])
def test_measure_report_on_tiny_managers(n):
    """Terminal and literal roots, where no query conditions on level 0."""
    m = BddManager(n)
    roots = [ZERO, ONE]
    if n:
        roots += [m.mk_node(0, ZERO, ONE), m.mk_node(0, ONE, ZERO)]
    subsets = ((), (0,)) if n else ((),)
    for w in (None, VarProbabilities([(0.25, 0.75)] * n)):
        for root in roots:
            report = measure_report(m, root, w, subsets=subsets)
            exact = exact_measures(enumerate_bdd(m, root), w, subsets=subsets)
            assert report.sat == pytest.approx(exact.sat, abs=TOL)
            assert report.entropy == pytest.approx(exact.entropy, abs=TOL)
            assert report.cond_entropy == pytest.approx(exact.cond_entropy, abs=TOL)
            assert report.mutual_info == pytest.approx(exact.mutual_info, abs=TOL)
            assert report.set_entropy == pytest.approx(exact.set_entropy, abs=TOL)


def test_wide_measures_match_oracle():
    """16 inputs, above the 12 where the benchmark stops comparing with
    the oracle: H(f), every H(f|x) and the entropies given 2- and
    3-variable subsets that mix the top variable with deep ones, on
    outputs built with apply under a scrambled order."""
    n = 16
    m = BddManager(n, order=random.Random(16).sample(range(n), n))
    x = [m.literal(v) for v in range(n)]
    carry, parity = ZERO, ZERO
    for a, b in zip(x[:8], x[8:]):          # carry out of a + b, 8 bits each
        half = m.apply(XOR, a, b)
        carry = m.apply(OR, m.apply(AND, a, b), m.apply(AND, carry, half))
        parity = m.apply(XOR, parity, m.apply(AND, a, m.negate(b)))
    roots = [carry, parity, m.apply(OR, carry, m.apply(AND, x[3], parity))]
    top, mid = m.var_at_level(0), m.var_at_level(n // 2)
    deep, deeper = m.var_at_level(n - 2), m.var_at_level(n - 1)
    subsets = tuple(tuple(sorted(s)) for s in
                    ((top, deeper), (top, deep, deeper), (top, mid, deeper)))
    for root in roots:
        report = measure_report(m, root, subsets=subsets)
        exact = exact_measures(enumerate_bdd(m, root), subsets=subsets)
        assert 0 < exact.entropy
        assert report.entropy == pytest.approx(exact.entropy, abs=TOL)
        assert report.cond_entropy == pytest.approx(exact.cond_entropy, abs=TOL)
        assert report.set_entropy == pytest.approx(exact.set_entropy, abs=TOL)


@pytest.fixture
def walks(monkeypatch):
    """The roots of every graph walk (``BddManager._reachable`` call)."""
    seen = []
    reachable = BddManager._reachable

    def counted(self, roots):
        seen.append(roots)
        return reachable(self, roots)

    monkeypatch.setattr(BddManager, "_reachable", counted)
    return seen


def test_measure_report_walks_the_graph_once(walks):
    """Every value of a report comes from one walk of the root's graph."""
    circuit = load_circuit(str(DATA / "s27.blif"))
    for _, root in circuit.outputs:
        walks.clear()
        measure_report(circuit.manager, root, subsets=[(0, 2), (1, 3)])
        assert len(walks) == 1


def test_mutual_information_walks_the_graph_once(walks):
    """I(f;x) takes H(f) and H(f|x) from one walk, with the same values
    as the two separate calls."""
    circuit = load_circuit(str(DATA / "s27.blif"))
    m = circuit.manager
    skewed = VarProbabilities([(1 - p, p) for p in (0.3, 0.5, 0.9, 0.25,
                                                    0.6, 0.1, 0.75)[:m.n]])
    for w in (None, skewed):
        for _, root in [*circuit.outputs, ("one", ONE)]:
            for var in range(m.n):
                walks.clear()
                mi = mutual_information(m, root, var, w)
                assert len(walks) == 1
                assert mi == entropy(m, root, w) - \
                    conditional_entropy_var(m, root, var, w)


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=80, deadline=None)
def test_information_inequalities(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    m = BddManager(n)
    root = m.build_from_truth_vector(format(bits, f"0{1 << n}b"))
    h = entropy(m, root)
    assert 0.0 <= h <= 1.0
    prev = h
    subset = []
    for var in range(n):
        hv = conditional_entropy_var(m, root, var)
        assert hv <= h + TOL
        subset.append(var)
        hs = conditional_entropy_set(m, root, subset)
        assert hs <= prev + TOL
        prev = hs


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=80, deadline=None)
def test_negation_symmetry(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    m = BddManager(n)
    root = m.build_from_truth_vector(format(bits, f"0{1 << n}b"))
    neg = m.negate(root)
    assert entropy(m, neg) == pytest.approx(entropy(m, root), abs=TOL)
    for var in range(n):
        assert conditional_entropy_var(m, neg, var) == \
            pytest.approx(conditional_entropy_var(m, root, var), abs=TOL)


@given(st.integers(min_value=2, max_value=5), st.data())
@settings(max_examples=60, deadline=None)
def test_measures_invariant_under_random_swaps(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    m = BddManager(n)
    root = m.build_from_truth_vector(format(bits, f"0{1 << n}b"))
    m.register_root(root)
    h = entropy(m, root)
    cond = [conditional_entropy_var(m, root, v) for v in range(n)]
    for _ in range(6):
        level = data.draw(st.integers(min_value=0, max_value=n - 2))
        m.swap_adjacent_levels(level)
    assert entropy(m, root) == pytest.approx(h, abs=TOL)
    for v in range(n):
        assert conditional_entropy_var(m, root, v) == pytest.approx(cond[v], abs=TOL)


def test_negated_example_probability(example1):
    manager, root = example1
    neg = manager.negate(root)
    assert weighted_sat_probability(manager, neg) == pytest.approx(0.375, abs=TOL)


def test_nonuniform_weights(example1):
    """Hand-computed weighted satisfaction for w(x1) = (0.75, 0.25)."""
    manager, root = example1
    w = VarProbabilities([(0.75, 0.25), (0.5, 0.5), (0.5, 0.5)])
    # p = p(x1=1) + p(x1=0) * p(not x2 and not x3) = 0.25 + 0.75 * 0.25
    assert weighted_sat_probability(manager, root, w) == \
        pytest.approx(0.4375, abs=TOL)
    assert reach_probabilities(manager, root, w)[ONE] == \
        pytest.approx(0.4375, abs=TOL)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_weighted_measures_match_oracle(n, data):
    """Dual route under non-uniform dyadic weights: graph recursions
    against exact weighted counting on the truth table."""
    from bddinfo import TruthTable, exact_measures
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    dyadic = st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0])
    w = VarProbabilities([(p, 1.0 - p) for p in
                          (data.draw(dyadic) for _ in range(n))])
    tt = TruthTable(n, bits)
    m = BddManager(n)
    root = m.build_from_truth_vector(tt.to_string())
    subset = tuple(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n))))
    report = exact_measures(tt, w, subsets=(subset,))
    assert weighted_sat_probability(m, root, w) == \
        pytest.approx(report.sat, abs=TOL)
    assert entropy(m, root, w) == pytest.approx(report.entropy, abs=TOL)
    for v in range(n):
        assert conditional_entropy_var(m, root, v, w) == \
            pytest.approx(report.cond_entropy[v], abs=TOL)
        assert mutual_information(m, root, v, w) == \
            pytest.approx(report.mutual_info[v], abs=TOL)
    assert conditional_entropy_set(m, root, subset, w) == \
        pytest.approx(report.set_entropy[subset], abs=TOL)
    # weighted joints against direct assignment enumeration
    prof = all_joint_probabilities(m, root, w)
    for v in range(n):
        for b in (0, 1):
            brute = sum(
                math.prod(w.pair(u)[(i >> (n - 1 - u)) & 1] for u in range(n))
                for i in range(1 << n)
                if tt.value(i) and ((i >> (n - 1 - v)) & 1) == b)
            assert prof.joint[v][b] == pytest.approx(brute, abs=TOL)


def _reach_by_path_enumeration(manager, root, w):
    """Oracle: accumulate path products by walking every root-to-node path."""
    masses = {root: 1.0}
    acc = {}

    def walk(u, mass):
        acc[u] = acc.get(u, 0.0) + mass
        t = manager._node.get(u)
        if t is None:
            return
        var, lo, hi = t
        walk(lo, mass * w.p0(var))
        walk(hi, mass * w.p1(var))

    walk(root, 1.0)
    return acc


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=50, deadline=None)
def test_reach_matches_path_enumeration(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    m = BddManager(n)
    root = m.build_from_truth_vector(format(bits, f"0{1 << n}b"))
    w = VarProbabilities.uniform(n)
    reach = reach_probabilities(m, root, w)
    expected = _reach_by_path_enumeration(m, root, w)
    assert set(reach) == set(expected)
    for u, mass in expected.items():
        assert reach[u] == pytest.approx(mass, abs=TOL)
    assert reach.get(ONE, 0.0) == \
        pytest.approx(weighted_sat_probability(m, root, w), abs=TOL)


def test_deep_parity_chain():
    """2,000 levels: every pass is iterative, so depth is no limit."""
    n = 2000
    m = BddManager(n)
    even, odd = ONE, ZERO
    for var in reversed(range(n)):
        even, odd = m.mk_node(var, even, odd), m.mk_node(var, odd, even)
    assert entropy(m, odd) == 1.0
    assert conditional_entropy_var(m, odd, n // 2) == 1.0
    assert conditional_entropy_set(m, odd, (0, 1, n // 2, n - 2)) == 1.0
    assert all_joint_probabilities(m, odd).sat == 0.5


def test_measure_report_on_a_deep_and_chain():
    """1,500 levels built with mk_node: the report matches the closed
    form of x0 and ... and x1499 with p(x=1) = q for every variable, with
    no recursion and no new node."""
    n, q = 1500, 0.999
    m = BddManager(n)
    f = ONE
    for var in reversed(range(n)):
        f = m.mk_node(var, ZERO, f)
    size = len(m)
    subset = (0, n // 2, n - 1)
    report = measure_report(m, f, VarProbabilities([(1.0 - q, q)] * n),
                            subsets=[subset])
    assert len(m) == size

    def h(p):
        return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))

    assert report.sat == pytest.approx(q ** n, rel=1e-9)
    assert report.entropy == pytest.approx(h(q ** n), rel=1e-9)
    given_one = q * h(q ** (n - 1))      # H(f|x): f = 0 whenever x = 0
    assert report.cond_entropy == pytest.approx(dict.fromkeys(range(n), given_one),
                                                rel=1e-9)
    assert report.set_entropy[subset] == pytest.approx(q ** 3 * h(q ** (n - 3)),
                                                       rel=1e-9)


def test_measures_build_no_nodes():
    """Measures only read the graph: they run at a full node limit and
    leave the node count unchanged."""
    circuit = load_circuit(str(DATA / "c17.blif"))
    m = circuit.manager
    m.node_limit = len(m)
    for _, root in circuit.outputs:
        measure_report(m, root, subsets=[(0, 2), (1, 3, 4)])
    assert len(m) == m.node_limit

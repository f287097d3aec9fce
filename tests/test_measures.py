import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddinfo import (
    AND, ONE, OR, XOR, ZERO, BddManager, ManagerMismatchError, UsageError,
    VarProbabilities, WeightError,
    all_joint_probabilities, conditional_entropy_set, conditional_entropy_var,
    entropy, enumerate_bdd, exact_measures, info_reorder, measure_report,
    mutual_information, reach_probabilities, weighted_sat_probability,
)

from bddinfo import measures
from bddinfo.cli import load_circuit

from conftest import (
    DATA, EXAMPLE1_VECTOR, H_F, H_F_X1, H_F_X1X2, H_F_X2, random_function,
)

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


@pytest.mark.parametrize("call", [
    lambda m, f: conditional_entropy_set(m, f, 3),
    lambda m, f: conditional_entropy_set(m, f, None),
    lambda m, f: measure_report(m, f, subsets=[1]),
    lambda m, f: measure_report(m, f, subsets=[(0,), 2]),
    lambda m, f: measure_report(m, f, subsets=5),
], ids=["set-int", "set-none", "subset-int", "second-subset-int", "subsets-int"])
def test_non_iterable_variable_sets_are_usage_errors(example1, call):
    """A variable set, or the list of them, that is not iterable raises
    UsageError, not Python's TypeError."""
    manager, root = example1
    with pytest.raises(UsageError, match="must be iterable"):
        call(manager, root)


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


@pytest.mark.parametrize("call", [
    lambda m, f, w: weighted_sat_probability(m, f, w),
    lambda m, f, w: reach_probabilities(m, f, w),
    lambda m, f, w: all_joint_probabilities(m, f, w),
    lambda m, f, w: entropy(m, f, w),
    lambda m, f, w: conditional_entropy_var(m, f, 0, w),
    lambda m, f, w: conditional_entropy_set(m, f, (0, 1), w),
    lambda m, f, w: mutual_information(m, f, 0, w),
    lambda m, f, w: measure_report(m, f, w),
], ids=["weighted_sat_probability", "reach_probabilities",
        "all_joint_probabilities", "entropy", "conditional_entropy_var",
        "conditional_entropy_set", "mutual_information", "measure_report"])
def test_stale_root_is_refused_before_the_weights(call):
    """Every single-root measure checks its root first: a collected
    handle with weights that are no VarProbabilities raises
    ManagerMismatchError, not WeightError."""
    m = BddManager(3)
    stale = m.apply(XOR, m.literal(0), m.literal(2))
    assert m.collect_garbage() > 0
    with pytest.raises(ManagerMismatchError):
        call(m, stale, [(0.5, 0.5)] * 3)


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


@pytest.mark.parametrize("seed", range(8))
def test_conditional_pairs_match_forced_weights(seed):
    """Each conditional pair is p(f=1) with x's weight pair forced to
    (1, 0) and to (0, 1), within 1e-12, and each joint is that times
    p(x=b); a pair is None where p(x=b) = 0, and a variable the function
    ignores gets exactly (p, p).  Skewed pairs tell p(x=0) from p(x=1)."""
    rng = random.Random(seed)
    n = 6
    unused = rng.randrange(n)
    skip = 1 << (n - 1 - unused)
    vec = [rng.getrandbits(1) for _ in range(1 << n)]
    vec = [vec[i & ~skip] for i in range(1 << n)]     # does not read `unused`
    pairs = [(1.0, 0.0), (0.0, 1.0), (0.25, 0.75), (0.9, 0.1), (0.5, 0.5)]
    rng.shuffle(pairs)
    pairs.insert(unused, (0.3, 0.7))
    w = VarProbabilities(pairs)
    m = BddManager(n)
    root = m.build_from_truth_vector(vec)
    m.set_order(rng.sample(range(n), n))
    prof = all_joint_probabilities(m, root, w)
    p = weighted_sat_probability(m, root, w)
    assert prof.sat == p
    assert prof.conditional[unused] == (p, p)
    for var, pair in enumerate(pairs):
        for b in (0, 1):
            got = prof.conditional[var][b]
            if pair[b] == 0.0:
                assert got is None
                continue
            want = weighted_sat_probability(m, root, w.forced(var, b))
            assert abs(got - want) <= 1e-12, (var, b)
            assert abs(prof.joint[var][b] - pair[b] * want) <= 1e-12, (var, b)


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


def _forced_reference(m, root, given, w):
    """H(f|S) for a set S with k >= 2 variables below its top run of
    levels, by the per-node dict pass: push the root's mass through the
    top run, then for each assignment to the k variables recompute the
    levels down to the deepest of them in a copy of the unforced node
    probabilities.  Returns (H, depth of the top run, frontier size),
    or None when k < 2."""
    depth = 0
    while depth < m.n and m.var_at_level(depth) in given:
        depth += 1
    rest = sorted(set(given).difference(m.order[:depth]))
    if len(rest) < 2:
        return None
    pairs = [w.pair(var) for var in range(m.n)]
    nodes = sorted(m._reachable([root]), key=lambda u: (m.level_of(u), u))
    reach = {root: 1.0}
    for u in nodes:
        if m.level_of(u) < depth and u in reach:
            mass = reach.pop(u)
            var, lo, hi = m.node(u)
            p0, p1 = pairs[var]
            reach[lo] = reach.get(lo, 0.0) + mass * p0
            reach[hi] = reach.get(hi, 0.0) + mass * p1
    frontier = [(u, reach[u]) for u in nodes if u in reach]
    sat = {ZERO: 0.0, ONE: 1.0}
    for u in reversed(nodes):
        var, lo, hi = m.node(u)
        p0, p1 = pairs[var]
        sat[u] = p0 * sat[lo] + p1 * sat[hi]
    bottom = max(m.level_of_var(var) for var in rest)
    part = [u for u in nodes if depth <= m.level_of(u) <= bottom]
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(rest)):
        forced = list(pairs)
        weight = 1.0
        for var, value in zip(rest, bits):
            forced[var] = ((1.0, 0.0), (0.0, 1.0))[value]
            weight *= pairs[var][value]
        probs = dict(sat)
        for u in reversed(part):
            var, lo, hi = m.node(u)
            p0, p1 = forced[var]
            probs[u] = p0 * probs[lo] + p1 * probs[hi]
        for u, mass in frontier:
            total += mass * weight * measures._binary_entropy(probs[u])
    return total, depth, len(frontier)


@pytest.mark.parametrize("seed", range(10))
def test_forced_route_matches_the_dict_pass(seed):
    """Every H(f|S) with k >= 2 variables below S's top run, from
    ``conditional_entropy_set`` and from ``measure_report``, is the float
    the per-node dict pass gives: random functions of 5 to 8 variables
    under a shuffled order, uniform and skewed weights, subsets of 2 to
    4 variables, some holding the top variables, so that several
    frontier nodes hand their mass down."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    order = list(range(n))
    rng.shuffle(order)
    m = BddManager(n, order=order)
    root = m.build_from_truth_vector(random_function(rng, n))
    skewed = VarProbabilities([(1 - k / 16, k / 16)
                               for k in (rng.randint(0, 16) for _ in range(n))])
    subsets = [rng.sample(range(n), rng.randint(2, 4)) for _ in range(6)]
    subsets += [order[:top] + rng.sample(order[top:], 2) for top in (1, 2)]
    deep = []
    for w in (None, skewed):
        report = measure_report(m, root, w, subsets=subsets)
        for subset in subsets:
            found = _forced_reference(m, root, subset, w or VarProbabilities.uniform(n))
            if found is None:
                continue
            want, depth, width = found
            if depth > 0:
                deep.append(width)
            assert conditional_entropy_set(m, root, subset, w).hex() == want.hex()
            assert report.set_entropy[tuple(sorted(subset))].hex() == want.hex()
    assert max(deep) >= 2


def test_measure_report_makes_one_bottom_up_pass(monkeypatch):
    """The 2^k forced passes of a subset run over the call's one list
    of unforced values, so a report with a 2- and a 3-variable subset
    below the top variable calls ``_bottom_up`` once, for the unforced
    pass."""
    circuit = load_circuit(str(DATA / "s27.blif"))
    m = circuit.manager
    calls = []
    bottom_up = measures._bottom_up

    def counted(*args):
        calls.append(args)
        return bottom_up(*args)

    monkeypatch.setattr(measures, "_bottom_up", counted)
    below = m.order[1:]
    for _, root in circuit.outputs:
        calls.clear()
        measure_report(m, root, subsets=[below[:2], below[2:5]])
        assert len(calls) == 1


def _weightings(rng, n):
    """Uniform weights, and weights in sixteenths and in fifths."""
    return [VarProbabilities.uniform(n)] + [
        VarProbabilities([(1 - k / parts, k / parts)
                          for k in (rng.randint(0, parts) for _ in range(n))])
        for parts in (16, 5)]


@pytest.mark.parametrize("seed", range(10))
def test_flat_slope_route_matches_the_dict_route(seed):
    """A frontier of one node u takes ``_slopes``' flat route; with any
    other node v beside it, the per-node dict route.  u's slopes are the
    same floats on both, and the same variables have one: random
    functions of 5 to 8 variables under a shuffled order, with a second
    function sharing nodes, v below u, above it or apart from it."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    order = list(range(n))
    rng.shuffle(order)
    m = BddManager(n, order=order)
    f, g = (m.build_from_truth_vector(random_function(rng, n)) for _ in range(2))
    nodes = measures._levelled(m, (f, m.apply(XOR, f, g)))
    pairs_seen = 0
    for w in _weightings(rng, n):
        sat = measures._bottom_up(m, nodes, w._pairs)
        for _ in range(8):
            u, v = rng.sample(nodes, 2)
            flat = measures._slopes(m, nodes, sat, w._pairs, [u])
            both = measures._slopes(m, nodes, sat, w._pairs, [u, v])
            assert {var: {x: d.hex() for x, d in by.items()}
                    for var, by in flat.items()} == \
                {var: {u: by[u].hex()} for var, by in both.items() if u in by}
            pairs_seen += 1
    assert pairs_seen == 24


@pytest.mark.parametrize("seed", range(6))
def test_report_subsets_at_two_depths_share_one_index(seed):
    """One report whose k >= 2 subsets sit at two depths (none of the top
    variables, and the top one or two of them) reads both from the one
    index that ``_conditioned`` builds from its shallowest depth down;
    each value is the float ``conditional_entropy_set`` gives from an
    index of its own depth."""
    rng = random.Random(seed)
    n = rng.randint(5, 8)
    order = list(range(n))
    rng.shuffle(order)
    m = BddManager(n, order=order)
    root = m.build_from_truth_vector(random_function(rng, n))
    top = rng.randint(1, 2)
    subsets = [rng.sample(order[1:], 2), rng.sample(order[1:], 3),
               order[:top] + rng.sample(order[top + 1:], 2)]
    queries = [measures._query(m, set(s)) for s in subsets]
    assert {depth for depth, _ in queries} == {0, top}
    assert min(len(rest) for _, rest in queries) >= 2
    for w in _weightings(rng, n):
        report = measure_report(m, root, w, subsets=subsets)
        for subset in subsets:
            assert report.set_entropy[tuple(sorted(subset))].hex() == \
                conditional_entropy_set(m, root, subset, w).hex()


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

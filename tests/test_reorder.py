import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddinfo import (
    ONE, XOR, ZERO, BddError, BddManager, ManagerMismatchError,
    NodeLimitError, TruthTable, VarProbabilities, best_order_exhaustive,
    conditional_entropy_set, conditional_entropy_var, enumerate_bdd,
    exact_measures, info_reorder, measure_report, sift,
    weighted_sat_probability, window_permute,
)
from bddinfo import measures, oracle
from bddinfo.cli import load_circuit
from bddinfo.measures import _conditioned
from bddinfo.reorder import TraceStep, _plain_changes, _run

from conftest import (
    DATA, EXAMPLE1_VECTOR, assert_manager_consistent, interrupt_at,
    random_function,
)


def build(vector, order=None):
    n = (len(vector).bit_length() - 1)
    m = BddManager(n, order=order)
    root = m.build_from_truth_vector(vector)
    m.register_root(root)
    return m, root


def test_info_reorder_example5(example1):
    manager, root = example1
    trace = info_reorder(manager)
    assert trace.final_order == [0, 1, 2]
    level0 = dict(trace.steps[0].scores)
    assert level0[0] == pytest.approx(0.405639, abs=1e-6)
    assert level0[1] == pytest.approx(0.905639, abs=1e-6)
    assert level0[2] == pytest.approx(0.905639, abs=1e-6)
    assert trace.steps[0].chosen == 0
    assert not trace.steps[0].tie
    # levels below have an exact tie, broken by the smaller index
    assert trace.steps[1].tie
    assert trace.steps[1].chosen == 1
    assert enumerate_bdd(manager, root).to_string() == EXAMPLE1_VECTOR


def test_info_reorder_from_scrambled_start():
    manager, root = build(EXAMPLE1_VECTOR, order=[2, 1, 0])
    trace = info_reorder(manager)
    assert trace.final_order == [0, 1, 2]
    assert manager.order == (0, 1, 2)
    assert trace.final_size == 3


def test_info_reorder_constant():
    m = BddManager(3)
    root = m.register_root(m.build_from_truth_vector("00000000"))
    trace = info_reorder(m)
    assert trace.final_size == 0
    for step in trace.steps:
        scores = [s for _, s in step.scores]
        assert all(s == scores[0] for s in scores)


def test_info_reorder_single_variable():
    m = BddManager(1)
    m.register_root(m.build_from_truth_vector("01"))
    trace = info_reorder(m)
    assert trace.final_order == [0]
    assert trace.final_size == 1


def test_trace_shape(example1):
    manager, _ = example1
    trace = info_reorder(manager)
    assert [len(step.scores) for step in trace.steps] == [3, 2, 1]
    for step in trace.steps:
        best = min(score for _, score in step.scores)
        chosen_score = dict(step.scores)[step.chosen]
        assert chosen_score <= best + 1e-12


def test_level_scores_equal_prefix_set_conditionals(rng):
    """Each level's score is H(f | placed prefix + candidate): checked
    against exact truth-table counting on a fresh copy of the function."""
    for trial in range(15):
        n = rng.randint(2, 5)
        vector = random_function(rng, n)
        w = None if trial % 2 else VarProbabilities(
            [(p, 1.0 - p) for p in (rng.choice((0.25, 0.5, 0.75))
                                    for _ in range(n))])
        manager, _ = build(vector)
        trace = info_reorder(manager, weights=w)
        table = TruthTable.from_string(vector)
        for step in trace.steps:
            assert step.chosen == trace.final_order[step.level]
            placed = trace.final_order[:step.level]
            subsets = tuple(tuple(sorted(placed + [var])) for var, _ in step.scores)
            exact = exact_measures(table, w, subsets=subsets).set_entropy
            for subset, (_, score) in zip(subsets, step.scores):
                assert score == pytest.approx(exact[subset], abs=1e-9)


def _fold(values):
    """Left-to-right sum, the way ``_conditioned`` adds its per-root
    values; builtin ``sum`` of floats is compensated from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def _shared_roots(rng, n):
    """A manager on a random order whose roots share nodes, including a
    terminal root and a root listed twice."""
    order = list(range(n))
    rng.shuffle(order)
    m = BddManager(n, order=order)
    f, g = (m.build_from_truth_vector(random_function(rng, n)) for _ in range(2))
    return m, [f, g, m.apply("and", f, g), m.apply("xor", f, g), ONE, f]


def test_conditioned_equals_summed_set_conditionals(rng):
    """The one conditioning kernel equals, float for float, the per-root
    sum of H(f | placed prefix + candidate) at every depth, and
    measure_report's H(f|x) and subset values equal the single-query
    functions, for subsets in the top run of levels, deeper only, mixed,
    empty and repeated."""
    for trial in range(12):
        n = rng.randint(1, 6)
        m, roots = _shared_roots(rng, n)
        w = None if trial % 2 else VarProbabilities(
            [(1.0 - p, p) for p in (rng.choice((0.0, 0.25, 0.5, 0.875, 1.0))
                                    for _ in range(n))])
        weights = VarProbabilities.uniform(n) if w is None else w
        order = list(m.order)
        for depth in range(n):
            queries = [(depth + 1, ()) if x == order[depth] else (depth, (x,))
                       for x in order[depth:]]
            expected = [_fold(conditional_entropy_set(m, root, order[:depth] + [x], w)
                              for root in roots)
                        for x in order[depth:]]
            assert _conditioned(m, [{r: 1.0} for r in roots], queries,
                                weights)[0] == expected
        subsets = [order[:2], order[1:], order[:1] + order[2:4], [],
                   order[-1:] * 2, order[:2], rng.sample(range(n), rng.randint(0, n))]
        for root in roots:
            report = measure_report(m, root, w, subsets=subsets)
            for x in range(n):
                assert report.cond_entropy[x] == conditional_entropy_var(m, root, x, w)
            for subset in subsets:
                assert report.set_entropy[tuple(sorted(set(subset)))] == \
                    conditional_entropy_set(m, root, subset, w)


def test_conditioned_leaves_the_given_frontiers_unchanged(rng):
    """The kernel pushes copies: frontiers handed in come back as they
    were when every query lies below them, and asking again gives the
    same values as asking from the roots."""
    n = 6
    m, roots = _shared_roots(rng, n)
    w = VarProbabilities([(0.25, 0.75)] * n)
    order = list(m.order)
    queries = [(1, ()), (2, (order[4],)), (1, (order[3], order[5])), (n, ())]
    reaches = [{root: 1.0} for root in roots]
    first = _conditioned(m, reaches, queries, w)
    assert reaches == [{root: 1.0} for root in roots]
    assert _conditioned(m, reaches, queries, w) == first
    assert _conditioned(m, [{r: 1.0} for r in roots], queries, w) == first


def _h(p):
    return 0.0 if p <= 0.0 or p >= 1.0 else \
        -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _forced_pass_route(m, roots, depth, x, w):
    """Reference for the query (depth, (x,)): each root's path mass is
    pushed through the levels above ``depth`` node by node, and every
    node it reaches is scored from two forced probabilities, with x
    pinned to 0 and to 1."""
    total = 0.0
    for root in roots:
        reach = {root: 1.0}
        for level in range(depth):
            for u in sorted(u for u in reach
                            if u not in (ZERO, ONE) and m.level_of(u) == level):
                mass = reach.pop(u)
                var, lo, hi = m.node(u)
                p0, p1 = w.pair(var)
                reach[lo] = reach.get(lo, 0.0) + mass * p0
                reach[hi] = reach.get(hi, 0.0) + mass * p1
        for u, mass in reach.items():
            for value in (0, 1):
                p = weighted_sat_probability(m, u, w.forced(x, value))
                total += mass * w.pair(x)[value] * _h(p)
    return total


def test_slope_kernel_matches_forced_passes_and_oracle(rng):
    """Every single-variable query (depth, (x,)), at every depth and for
    x above, on and below it, equals the forced-pass route within 1e-12
    and exact truth-table counting within 1e-9, on shared roots with a
    terminal and a duplicate root, under weights with 0/1 pairs."""
    for trial in range(12):
        n = rng.randint(1, 7)
        m, roots = _shared_roots(rng, n)
        w = VarProbabilities.uniform(n) if trial % 2 else VarProbabilities(
            [(1.0 - p, p) for p in (rng.choice((0.0, 0.25, 0.5, 0.875, 1.0))
                                    for _ in range(n))])
        tables = [enumerate_bdd(m, root) for root in roots]
        order = list(m.order)
        for depth in range(n + 1):
            queries = [(depth, (x,)) for x in range(n)]
            values, _ = _conditioned(m, [{r: 1.0} for r in roots], queries, w)
            for x, value in zip(range(n), values):
                assert value == pytest.approx(
                    _forced_pass_route(m, roots, depth, x, w), abs=1e-12)
                given = (tuple(sorted(set(order[:depth] + [x]))),)
                exact = sum(exact_measures(table, w, subsets=given)
                            .set_entropy[given[0]] for table in tables)
                assert value == pytest.approx(exact, abs=1e-9)


def test_info_scores_leave_out_unscored_registered_roots(rng):
    """Scoring some roots while g is also registered gives, float for
    float, the sum of their own conditional_entropy_set scores: g's
    nodes sit in the level order read from the unique tables but carry
    no mass.  On 10-12 variables the scored roots are f, a terminal and
    f again, under 0/1 and inexact weight pairs, and chosen variables
    come up several levels, rewriting every level in between: the
    frontiers carried from level to level are checked on such moves."""
    longest = 0
    for trial in range(11):
        n = rng.randint(3, 7) if trial < 8 else trial + 2
        order = list(range(n))
        rng.shuffle(order)
        m = BddManager(n, order=order)
        f, g = (m.register_root(m.build_from_truth_vector(random_function(rng, n)))
                for _ in range(2))
        roots = [f] if n <= 7 else [f, ONE, f]
        w = None
        if n > 7 or trial % 2 == 0:
            ps = (0.0, 0.25, 0.5, 0.875, 1.0) if n <= 7 else (0.0, 0.1, 0.7, 1.0)
            w = VarProbabilities([(1.0 - p, p) for p in (rng.choice(ps)
                                                         for _ in range(n))])
        replay = m.clone()          # same handles, so the same level order
        trace = info_reorder(m, roots=roots, weights=w)
        replay.collect_garbage()
        assert replay.count_nodes([f]) < len(replay)
        for step in trace.steps:
            prefix = list(replay.order[:step.level])
            assert step.scores == [
                (x, _fold(conditional_entropy_set(replay, r, prefix + [x], w)
                          for r in roots))
                for x in sorted(replay.order[step.level:])]
            longest = max(longest, replay.level_of_var(step.chosen) - step.level)
            replay.move_var(step.chosen, step.level)
        assert replay.order == m.order
    assert longest >= 4


def test_duplicate_explicit_roots_are_registered_once(rng):
    """A root listed twice is registered once, yet scored twice."""
    n = 6
    m = BddManager(n)
    f = m.build_from_truth_vector(random_function(rng, n))
    w = VarProbabilities([(0.25, 0.75)] * n)
    replay = m.clone()
    trace = info_reorder(m, roots=[f, f], weights=w)
    assert m.registered_roots == (f,)
    assert_manager_consistent(m)
    replay.register_root(f)
    replay.collect_garbage()
    for step in trace.steps:
        prefix = list(replay.order[:step.level])
        assert step.scores == [
            (x, conditional_entropy_set(replay, f, prefix + [x], w) * 2)
            for x in sorted(replay.order[step.level:])]
        replay.move_var(step.chosen, step.level)


def test_rootless_scores_are_floats():
    """With no roots every score is the float 0.0, as TraceStep documents."""
    m = BddManager(3)
    trace = info_reorder(m)
    scores = [score for step in trace.steps for _, score in step.scores]
    assert scores == [0.0] * 6
    assert all(type(score) is float for score in scores)
    values, _ = _conditioned(m, [], [(0, ()), (0, (1,)), (1, (2, 0))],
                             VarProbabilities.uniform(3))
    assert all(type(value) is float for value in values)


def test_info_reorder_walks_the_graph_once_per_level(rng, monkeypatch):
    """One sweep on entry plus one shared walk per level: a count, not a
    timing."""
    n = 12
    m = BddManager(n)
    for _ in range(3):
        m.register_root(m.build_from_truth_vector(random_function(rng, n)))
    walks = []
    reachable = BddManager._reachable

    def counted(self, roots):
        walks.append(roots)
        return reachable(self, roots)

    monkeypatch.setattr(BddManager, "_reachable", counted)
    info_reorder(m)
    assert len(walks) <= n + 1


def test_info_reorder_pushes_each_root_through_each_level_at_most_twice(
        rng, monkeypatch):
    """Each root's frontier is carried from level to level: its mass
    crosses at most 2n levels over the whole run, where pushing it from
    the root on every level crosses n(n+1)/2.  A count, not a timing."""
    n = 12
    m = BddManager(n)
    for _ in range(3):
        m.register_root(m.build_from_truth_vector(random_function(rng, n)))
    crossed = []
    top_down = measures._top_down

    def counted(manager, reach, order, *args, **kwargs):
        crossed.append(len({manager.level_of(u) for u in order}))
        return top_down(manager, reach, order, *args, **kwargs)

    monkeypatch.setattr(measures, "_top_down", counted)
    info_reorder(m)
    assert sum(crossed) <= 3 * 2 * n


def _info_trace_lines():
    """One line per ``info_reorder`` step: input, weighting, level,
    chosen variable, tie flag, size after, and every score as
    ``float.hex()``.  The inputs are three circuit files and three seeded
    random managers (n = 10-12, 2-3 roots, shuffled orders), each run
    from the same start under uniform weights and two seeded weightings.
    Weights in multiples of 1/16 keep every path mass exact up to 13
    levels, so no mass depends on the order it is added in; weights in
    multiples of 1/5 are inexact, and there that order shows."""
    inputs = []
    for name in ("example1", "c17", "s27"):
        circuit = load_circuit(str(DATA / f"{name}.blif"))
        inputs.append((name, circuit.manager, [r for _, r in circuit.outputs]))
    for seed, n, count in ((1, 10, 2), (2, 11, 3), (3, 12, 3)):
        rng = random.Random(seed)
        order = list(range(n))
        rng.shuffle(order)
        m = BddManager(n, order=order)
        roots = [m.register_root(m.build_from_truth_vector(
            format(rng.getrandbits(1 << n), f"0{1 << n}b"))) for _ in range(count)]
        inputs.append((f"random{seed}", m, roots))
    lines = []
    for name, m, roots in inputs:
        weightings = [("uniform", None)]
        for den in (16, 5):
            rng = random.Random(name)
            ps = [rng.randint(1, den - 1) / den for _ in range(m.n)]
            weightings.append((f"1/{den}", VarProbabilities([(1.0 - p, p)
                                                             for p in ps])))
        for label, w in weightings:
            trace = info_reorder(m.clone(), roots=roots, weights=w)
            for step in trace.steps:
                scores = " ".join(f"{var}:{score.hex()}"
                                  for var, score in step.scores)
                lines.append(f"{name} {label} {step.level} {step.chosen} "
                             f"{int(step.tie)} {step.size_after} {scores}")
    return lines


def test_info_traces_match_golden_floats():
    """Every score, bit for bit, against a file frozen from an earlier
    build: the tests that compare with ``conditional_entropy_set`` share
    its kernel, so only a frozen file pins the order in which path
    masses are added.  The file holds ``_info_trace_lines()``, one line
    each, after one ``#`` header line."""
    golden = (DATA / "golden" / "info_traces.txt").read_text(encoding="utf-8")
    assert _info_trace_lines() == golden.splitlines()[1:]


def test_level0_choice_is_conditional_entropy_argmin(rng):
    """Independent recomputation of the level-0 criterion."""
    for _ in range(20):
        vector = random_function(rng, 4)
        manager, root = build(vector)
        trace = info_reorder(manager)
        fresh, froot = build(vector)
        scores = {v: conditional_entropy_var(fresh, froot, v) for v in range(4)}
        best = min(scores.values())
        argmins = [v for v, s in scores.items() if s <= best + 1e-12]
        assert trace.steps[0].chosen == min(argmins)
        assert trace.steps[0].chosen in argmins


def test_sift_optimal_start_is_fixed_point():
    manager, root = build(EXAMPLE1_VECTOR)
    trace = sift(manager)
    assert trace.final_size == trace.initial_size == 3


def test_sift_never_increases(rng):
    for _ in range(15):
        manager, root = build(random_function(rng, 6))
        vector = enumerate_bdd(manager, root).to_string()
        trace = sift(manager)
        assert trace.final_size <= trace.initial_size
        assert enumerate_bdd(manager, root).to_string() == vector


def _sift_reference(manager):
    """Sifting with every variable swept through every level, the loop
    ``sift`` had before its lower-bound cutoff, run by the same driver."""

    def search(roots):
        n = manager.n
        population = [len(table) for table in manager._unique]
        priority = sorted(range(n), key=lambda var: (-population[var], var))
        for var in priority:
            start = manager.level_of_var(var)
            best_size = len(manager)
            best_pos = start
            if start <= n - 1 - start:
                sweep = list(range(start - 1, -1, -1)) + list(range(1, n))
            else:
                sweep = list(range(start + 1, n)) + list(range(n - 2, -1, -1))
            for pos in sweep:
                manager.move_var(var, pos)
                size = len(manager)
                if size < best_size:
                    best_size = size
                    best_pos = pos
            manager.move_var(var, best_pos)
            yield TraceStep(level=best_pos, scores=[(var, float(best_size))],
                            chosen=var, tie=False, size_after=len(manager))

    return _run("sift", manager, None, search)


def _random_roots(rng, n, count):
    m = BddManager(n)
    for _ in range(count):
        m.register_root(m.build_from_truth_vector(random_function(rng, n)))
    return m


def _count_swaps(monkeypatch):
    """Wrap the level swap; the returned list grows by one per swap."""
    calls = []
    swap = BddManager.swap_adjacent_levels

    def counted(self, level):
        calls.append(level)
        swap(self, level)

    monkeypatch.setattr(BddManager, "swap_adjacent_levels", counted)
    return calls


def test_sift_cutoff_matches_full_sweep(rng):
    """The lower-bound cutoff changes no order, size or step."""
    managers = []
    for n in range(4, 9):
        for count in (1, 3, 1, 3):
            managers.append(_random_roots(rng, n, count))
    for name in ("c17.blif", "s27.blif"):
        managers.append(load_circuit(str(DATA / name)).manager)
    for m in managers:
        expected = _sift_reference(m.clone())
        trace = sift(m)
        assert trace.final_order == expected.final_order
        assert trace.initial_size == expected.initial_size
        assert trace.final_size == expected.final_size
        assert [repr(step) for step in trace.steps] == \
            [repr(step) for step in expected.steps]
        assert_manager_consistent(m)


def test_sift_cutoff_skips_swaps(monkeypatch):
    m = load_circuit(str(DATA / "s27.blif")).manager
    calls = _count_swaps(monkeypatch)
    _sift_reference(m.clone())
    full = len(calls)
    calls.clear()
    sift(m)
    assert len(calls) < full


def test_clone_counts_stay_with_their_manager():
    """A sift on a clone rewrites the clone's reference counts, node
    store and unique tables alone: the source keeps all three as they
    were and stays consistent."""
    source = load_circuit(str(DATA / "s27.blif")).manager
    refs = list(source._refs)
    nodes = dict(source._node)
    unique = [dict(table) for table in source._unique]
    twin = source.clone()
    assert sift(twin).swaps > 0
    assert source._refs == refs
    assert source._node == nodes
    assert source._unique == unique
    assert_manager_consistent(source)
    assert_manager_consistent(twin)


def test_window_equals_exhaustive_when_window_covers_everything(rng):
    for _ in range(10):
        vector = random_function(rng, 3)
        manager, root = build(vector)
        trace = window_permute(manager, window=3)
        _, best = best_order_exhaustive(TruthTable.from_string(vector))
        assert trace.final_size == best


def test_window_never_increases(rng):
    for _ in range(15):
        manager, root = build(random_function(rng, 6))
        vector = enumerate_bdd(manager, root).to_string()
        trace = window_permute(manager, window=3)
        assert trace.final_size <= trace.initial_size
        assert enumerate_bdd(manager, root).to_string() == vector


def _place_window(manager, start, perm):
    for offset, var in enumerate(perm):
        manager.move_var(var, start + offset)


def _window_reference(manager, window):
    """Window permutation placing every arrangement from scratch, the
    loop ``window_permute`` had before its plain-changes walk."""
    roots = list(manager.registered_roots)
    manager.collect_garbage()
    n = manager.n
    steps = []
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
                steps.append((start, best_size))
    return list(manager.order), manager.count_nodes(roots), steps


def test_window_walk_matches_reference_loop(rng):
    for trial in range(30):
        vector = random_function(rng, 6)
        window = (2, 3, 4)[trial % 3]
        manager, _ = build(vector)
        trace = window_permute(manager, window=window)
        reference, _ = build(vector)
        order, size, steps = _window_reference(reference, window)
        assert trace.final_order == order
        assert trace.final_size == size
        assert [(s.level, s.size_after) for s in trace.steps] == steps
        assert_manager_consistent(manager)


def _full_pass_swaps(steps, n, window):
    """A lower bound on the swaps of a window search that walks every
    window on every pass: an improving pass lists its steps by rising
    start, and the last pass improves nothing."""
    passes = 1 + bool(steps) + sum(b.level <= a.level for a, b in zip(steps, steps[1:]))
    return passes * (n - window + 1) * (math.factorial(window) - 1)


@pytest.mark.parametrize("window", [2, 3, 4])
def test_window_skip_matches_reference_loop(rng, window):
    """Skipping settled windows changes no order, size or step, on
    managers with three roots."""
    for _ in range(12):
        m = _random_roots(rng, rng.randint(window, 7), 3)
        reference = m.clone()
        trace = window_permute(m, window=window)
        order, size, steps = _window_reference(reference, window)
        assert trace.final_order == order
        assert trace.final_size == size
        assert [(s.level, s.size_after) for s in trace.steps] == steps
        assert_manager_consistent(m)


def test_window_skip_skips_swaps(monkeypatch):
    m = load_circuit(str(DATA / "s27.blif")).manager
    calls = _count_swaps(monkeypatch)
    trace = window_permute(m, window=3)
    assert len(calls) < _full_pass_swaps(trace.steps, m.n, 3)


@pytest.mark.parametrize("method", [info_reorder, sift, window_permute])
def test_trace_counts_the_swaps(rng, monkeypatch, method):
    m = _random_roots(rng, 6, 3)
    calls = _count_swaps(monkeypatch)
    trace = method(m)
    assert trace.swaps == len(calls) > 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_plain_changes_visit_every_arrangement(k):
    walk = _plain_changes(k)
    assert len(walk) == math.factorial(k) - 1
    items = list(range(k))
    seen = {tuple(items)}
    for offset in walk:
        assert 0 <= offset < k - 1
        items[offset], items[offset + 1] = items[offset + 1], items[offset]
        seen.add(tuple(items))
    assert len(seen) == math.factorial(k)


@pytest.mark.parametrize("method", [info_reorder, sift, window_permute])
def test_sizes_count_every_registered_root(rng, method):
    """Sizes are shared counts, and the final check leaves no garbage
    behind, on the truth-table path (n = 5) and the clone path (n = 12)."""
    for n in (5, 12):
        m = BddManager(n)
        m.register_root(m.build_from_truth_vector(random_function(rng, n)))
        a = m.build_from_truth_vector(random_function(rng, n))
        trace = method(m, roots=[a])
        assert a in m.registered_roots
        assert trace.final_size == m.shared_size() == len(m)
        assert trace.final_size > m.count_nodes([a])


def test_a_reorder_that_fits_the_node_limit_passes_its_check():
    """The clone-path check builds in the snapshot, not in the caller's
    manager, so a reorder that fits ``node_limit`` is not failed by it."""
    k = 8
    m = BddManager(2 * k)       # blocked order: a0..a7, then b0..b7
    carry = None
    for i in range(k):
        a, b = m.literal(i), m.literal(k + i)
        half = m.apply("xor", a, b)
        if carry is None:
            m.register_root(half)
            carry = m.apply("and", a, b)
        else:
            m.register_root(m.apply("xor", half, carry))
            carry = m.apply("or", m.apply("and", a, b),
                            m.apply("and", half, carry))
    m.register_root(carry)
    m.collect_garbage()
    assert len(m) == 1521
    m.node_limit = 3 * len(m)
    trace = info_reorder(m)
    assert trace.final_size == len(m) == 65
    assert_manager_consistent(m)


@pytest.mark.parametrize("method, seed", [
    (info_reorder, 2), (info_reorder, 6), (info_reorder, 7),
    (sift, 6), (sift, 7), (sift, 22)])
def test_a_search_that_fits_the_node_limit_is_not_failed_by_its_check(
        monkeypatch, method, seed):
    """The clone-path check rebuilds the final roots in a scratch copy
    that has no ``node_limit``, so a run whose search fits the limit
    ends with the unlimited trace.  The limit is twice the unlimited
    search's peak plus twice its widest level, the swap guard's margin.
    On each seeded 11- to 13-input case the rebuild passes that limit,
    so a check bounded by it would raise NodeLimitError."""
    def case():
        rng = random.Random(seed)
        n = rng.randint(11, 13)
        return _random_roots(rng, n, rng.randint(1, 3))

    swap = BddManager.swap_adjacent_levels
    peak = widest = 0

    def recording(self, level):
        nonlocal peak, widest
        widest = max(widest, *map(len, self._unique))
        peak = max(peak, len(self))
        swap(self, level)
        peak = max(peak, len(self))

    monkeypatch.setattr(BddManager, "swap_adjacent_levels", recording)
    unlimited = method(case())
    monkeypatch.undo()
    m = case()
    m.node_limit = 2 * peak + 2 * widest
    trace = method(m)
    assert dataclasses.replace(trace, elapsed=0.0) == \
        dataclasses.replace(unlimited, elapsed=0.0)
    assert_manager_consistent(m)


def test_sift_under_node_limit_leaves_manager_intact():
    """A swap that could pass node_limit raises before changing anything."""
    circuit = load_circuit(str(DATA / "c17.blif"))
    m = circuit.manager
    roots = [root for _, root in circuit.outputs]
    tables = [enumerate_bdd(m, r).bits for r in roots]
    m.collect_garbage()
    m.node_limit = len(m) + 1
    with pytest.raises(NodeLimitError):
        sift(m)
    assert_manager_consistent(m)
    m.node_limit = None
    assert [enumerate_bdd(m, r).bits for r in roots] == tables
    trace = sift(m)
    assert [enumerate_bdd(m, r).bits for r in roots] == tables
    assert trace.final_size == m.shared_size()
    assert_manager_consistent(m)


def _state(m, slots):
    """What a failed reorder must leave as it found it: the node store in
    handle order, the order, the roots and the first ``slots`` counts."""
    return list(m._node.items()), m.order, m.registered_roots, m._refs[:slots]


@pytest.mark.parametrize("method, size", [
    (sift, 153), (info_reorder, 259), (window_permute, 238)])
def test_a_search_that_passes_the_node_limit_leaves_the_manager_as_it_was(
        monkeypatch, method, size):
    """On hwb12 (238 nodes) every search passes a node limit of 400
    after it has moved the order and grown the manager.  Its
    NodeLimitError restores the entry snapshot: the node store, order,
    roots and counts are those of the entry.  An unlimited run then
    gives the size a fresh load does, and every handle the failed
    search's swaps minted is still refused, not reused by that run."""
    m = load_circuit(str(DATA / "hwb12.tt")).manager
    entry = _state(m, len(m._refs))
    minted = []
    swap = BddManager.swap_adjacent_levels

    def recording(self, level):
        before = set(self._node)
        swap(self, level)
        minted.extend(set(self._node) - before)

    monkeypatch.setattr(BddManager, "swap_adjacent_levels", recording)
    m.node_limit = 400
    with pytest.raises(NodeLimitError):
        method(m)
    assert minted
    assert _state(m, len(entry[3])) == entry
    assert_manager_consistent(m)
    monkeypatch.undo()
    m.node_limit = None
    assert method(m).final_size == size
    for handle in minted:
        with pytest.raises(ManagerMismatchError):
            m.node(handle)


@pytest.mark.parametrize("method, n", [
    (info_reorder, 4), (sift, 3), (window_permute, 3)])
def test_an_interrupted_reorder_leaves_the_manager_as_it_was(method, n):
    """An exception raised at any line of ``_run`` or of a level swap,
    from the root registration through the search to the trace, leaves
    the manager as it was on entry, and a rerun then gives the trace of
    an uninterrupted run.  A seeded manager, in a random order, holds a
    registered root, a second root passed in ``roots`` only, and
    garbage; a trace function raises once, at the k-th line event of
    those frames, for every k until the call runs to the end."""
    rng = random.Random(0)
    base = BddManager(n, order=rng.sample(range(n), n))
    first = base.register_root(base.build_from_truth_vector(
        random_function(rng, n)))
    extra = base.build_from_truth_vector(random_function(rng, n))
    base.apply(XOR, first, extra)
    codes = (_run.__code__, BddManager.swap_adjacent_levels.__code__)
    want = dataclasses.replace(method(base.clone(), [extra]), elapsed=0.0)
    points = 0
    for k in itertools.count(1):
        m = base.clone()
        entry = _state(m, len(m._refs))
        trace, lines = interrupt_at(k, codes, lambda: method(m, [extra]))
        if trace is None:
            points += 1
            assert _state(m, len(entry[3])) == entry
            assert_manager_consistent(m)
            trace = method(m, [extra])
        assert dataclasses.replace(trace, elapsed=0.0) == want
        if lines < k:
            break
    assert points > 100


def test_window_validation(example1):
    manager, _ = example1
    with pytest.raises(ValueError):
        window_permute(manager, window=5)
    with pytest.raises(ValueError):
        window_permute(manager, window=2.0)
    with pytest.raises(ValueError):
        window_permute(manager, window=4)   # only 3 variables


def test_reorders_beat_nothing_but_not_the_oracle(rng):
    for _ in range(20):
        vector = random_function(rng, 5)
        _, best = best_order_exhaustive(TruthTable.from_string(vector))
        for method in (info_reorder, sift, window_permute):
            manager, root = build(vector)
            trace = method(manager)
            assert trace.final_size >= best
            assert enumerate_bdd(manager, root).to_string() == vector


def test_trace_replay_reproduces_size(rng):
    for method in (info_reorder, sift, window_permute):
        vector = random_function(rng, 6)
        manager, root = build(vector)
        trace = method(manager)
        replay, _ = build(vector, order=trace.final_order)
        assert replay.shared_size() == trace.final_size


def test_multi_output_reorder(rng):
    m = BddManager(5)
    vectors = [random_function(rng, 5) for _ in range(3)]
    roots = [m.register_root(m.build_from_truth_vector(v)) for v in vectors]
    trace = info_reorder(m)
    for vector, root in zip(vectors, roots):
        assert enumerate_bdd(m, root).to_string() == vector
    assert trace.final_size == m.count_nodes(roots)


def test_determinism(rng):
    vector = random_function(rng, 6)
    runs = []
    for _ in range(2):
        manager, _ = build(vector)
        trace = info_reorder(manager)
        runs.append((trace.final_order, trace.final_size,
                     [(s.level, s.scores, s.chosen, s.tie, s.size_after)
                      for s in trace.steps]))
    assert runs[0] == runs[1]


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=25, deadline=None)
def test_all_methods_preserve_semantics(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    vector = format(bits, f"0{1 << n}b")
    methods = [info_reorder, sift]
    if n >= 2:
        methods.append(lambda m: window_permute(m, window=min(3, n)))
    for method in methods:
        manager, root = build(vector)
        method(manager)
        assert enumerate_bdd(manager, root).to_string() == vector
        assert_manager_consistent(manager)


@pytest.mark.parametrize("n, calls", [(8, 6), (12, 0)], ids=["tables", "clone"])
@pytest.mark.parametrize("method", [info_reorder, sift, window_permute])
def test_table_check_calls_the_oracle_per_root_at_entry_and_exit(
        rng, monkeypatch, method, n, calls):
    """Up to 10 variables the driver tabulates every registered root
    through ``oracle.enumerate_bdd`` once on entry and once on exit;
    above that it never calls it.  The benchmark's
    ``reorder.verify_tables_s`` span wraps that module attribute."""
    m = BddManager(n)
    for _ in range(3):
        m.register_root(m.build_from_truth_vector(random_function(rng, n)))
    real = oracle.enumerate_bdd
    seen = []

    def counting(manager, root):
        seen.append(root)
        return real(manager, root)

    monkeypatch.setattr(oracle, "enumerate_bdd", counting)
    method(m)
    assert len(seen) == calls


def test_verification_on_wide_managers(rng):
    """Above the exhaustive-check width the clone-and-transfer check runs."""
    m = BddManager(12)
    f = m.literal(0)
    for v in range(1, 12):
        f = m.apply("xor", f, m.literal(v))
    m.register_root(f)
    trace = sift(m)
    assert trace.final_size == 2 * 12 - 1   # parity size is order-insensitive


def _flip_children(m, u):
    """Make node ``u`` compute another function, (var, hi, lo) in place of
    (var, lo, hi), keeping the unique tables and reference counts right."""
    var, lo, hi = m._node[u]
    assert (var, hi, lo) not in m._unique[var]
    del m._unique[var][(var, lo, hi)]
    m._node[u] = (var, hi, lo)
    m._unique[var][(var, hi, lo)] = u


@pytest.mark.parametrize("passed", [True, False], ids=["passed", "registered-only"])
@pytest.mark.parametrize("n", [5, 12], ids=["tables", "clone"])
@pytest.mark.parametrize("method", [info_reorder, sift, window_permute])
def test_a_root_corrupted_by_the_last_swap_is_caught(rng, monkeypatch,
                                                     method, n, passed):
    """Negative control of the final check, on the truth-table path
    (n = 5) and the clone path (n = 12): the last swap of a run corrupts
    one registered root, passed in ``roots`` or only registered."""
    m = BddManager(n)
    victim = m.register_root(m.build_from_truth_vector(random_function(rng, n)))
    other = m.build_from_truth_vector(random_function(rng, n))
    roots = [victim, other] if passed else [other]
    swap = BddManager.swap_adjacent_levels
    calls = []
    last = None

    def corrupting_swap(self, level):
        swap(self, level)
        calls.append(level)
        if len(calls) == last:
            _flip_children(self, victim)

    monkeypatch.setattr(BddManager, "swap_adjacent_levels", corrupting_swap)
    method(m.clone(), roots=roots)      # a rehearsal counts the swaps
    last = len(calls)
    assert last > 0
    calls.clear()
    with pytest.raises(BddError, match="changed a root's function"):
        method(m, roots=roots)
    assert len(calls) == last
    assert_manager_consistent(m)


@pytest.mark.parametrize("method", [info_reorder, sift, window_permute])
def test_a_refused_reorder_registers_nothing(method):
    from bddinfo import AND, ManagerMismatchError
    m = BddManager(3)
    f = m.apply(AND, m.literal(0), m.literal(1))
    with pytest.raises(ManagerMismatchError):
        method(m, [f, "x"])
    assert m.registered_roots == ()

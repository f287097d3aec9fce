import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddinfo import (
    BddManager, TruthTable, VarProbabilities, best_order_exhaustive,
    conditional_entropy_var, enumerate_bdd, exact_measures, info_reorder,
    sift, window_permute,
)

from conftest import EXAMPLE1_VECTOR, random_function


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


def test_window_validation(example1):
    manager, _ = example1
    with pytest.raises(ValueError):
        window_permute(manager, window=5)
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
    for method in (info_reorder, sift):
        manager, root = build(vector)
        method(manager)
        assert enumerate_bdd(manager, root).to_string() == vector


def test_verification_on_wide_managers(rng):
    """Above the exhaustive-check width the clone-and-transfer check runs."""
    m = BddManager(12)
    f = m.literal(0)
    for v in range(1, 12):
        f = m.apply("xor", f, m.literal(v))
    m.register_root(f)
    trace = sift(m)
    assert trace.final_size == 2 * 12 - 1   # parity size is order-insensitive

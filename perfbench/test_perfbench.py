"""Tests of the benchmark itself: generator, checks, optimum and tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import pathlib
import random
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from bddinfo import BddManager, cli, oracle, reorder  # noqa: E402

import circuits  # noqa: E402
import jobs  # noqa: E402
import tracer  # noqa: E402


def _load(tmp_path, name, seed=1):
    path = circuits.write_circuit(name, tmp_path, seed, ROOT)
    return cli.load_circuit(str(path))


def _prepared(tmp_path, name, seed=1):
    return jobs.prepare([name], [_load(tmp_path, name, seed)], seed)[0]


def _words(circuit, k, rng, samples=40):
    """Seeded (a, b) pairs, half of them equal so comparators see both outcomes."""
    pairs = [(rng.randrange(1 << k), rng.randrange(1 << k)) for _ in range(samples)]
    return pairs + [(a, a) for a, _ in pairs[: samples // 2]]


def _outputs(circuit, a, b, k):
    bits = {f"a{i}": a >> i & 1 for i in range(k)}
    bits.update({f"b{i}": b >> i & 1 for i in range(k)})
    assignment = [bits[name] for name in circuit.input_names]
    return {name: circuit.manager.evaluate(root, assignment)
            for name, root in circuit.outputs}


@pytest.mark.parametrize("name,k", [("add4", 4), ("add9", 9), ("add8i", 8)])
def test_adders_add(tmp_path, name, k):
    circuit = _load(tmp_path, name)
    for a, b in _words(circuit, k, random.Random(name)):
        out = _outputs(circuit, a, b, k)
        total = sum(out[f"s{i}"] << i for i in range(k)) + (out["cout"] << k)
        assert total == a + b


@pytest.mark.parametrize("k", [4, 5, 6])
def test_multipliers_multiply(tmp_path, k):
    circuit = _load(tmp_path, f"mul{k}")
    for a, b in _words(circuit, k, random.Random(k)):
        out = _outputs(circuit, a, b, k)
        assert sum(out[f"p{i}"] << i for i in range(2 * k)) == a * b


def test_comparator_compares(tmp_path):
    circuit = _load(tmp_path, "cmp9")
    seen = set()
    for a, b in _words(circuit, 10, random.Random(9)):
        out = _outputs(circuit, a, b, 9)
        assert out["eq"] == int(a == b)
        seen.add(out["eq"])
    assert seen == {0, 1}


def test_hidden_weighted_bit_and_random_pla(tmp_path):
    circuit = _load(tmp_path, "hwb12")
    manager, root = circuit.manager, circuit.outputs[0][1]
    for bits in ([0] * 12, [1] * 12, [0, 1] + [0] * 10, [1, 0, 1] + [0] * 9):
        weight = sum(bits)
        assert manager.evaluate(root, bits) == (bits[weight - 1] if weight else 0)
    one = circuits.random_pla(random.Random("x"), 14, 4, cubes=40)
    assert one == circuits.random_pla(random.Random("x"), 14, 4, cubes=40)
    assert one != circuits.random_pla(random.Random("y"), 14, 4, cubes=40)
    assert _load(tmp_path, "rpla14").manager.n == 14


def test_iscas_circuits_are_copied_unchanged(tmp_path):
    for name in ("c17", "s27"):
        path = circuits.write_circuit(name, tmp_path, 1, ROOT)
        assert path.read_bytes() == (ROOT / circuits.COPIED[name]).read_bytes()


@pytest.mark.parametrize("name", ["s27", "add8i"])   # oracle path, consistency path
def test_measures_check_passes_and_catches_a_perturbed_entropy(tmp_path, name):
    circuit = _prepared(tmp_path, name)
    jobs.add_oracle_expectations(circuit)
    _, results = jobs.measures_job(circuit)
    assert jobs.check_measures(circuit, results) == []
    results[1][2].cond_entropy[0] += 1e-6
    assert jobs.check_measures(circuit, results)
    if name == "s27":
        _, results = jobs.measures_job(circuit)
        results[0][2].entropy += 1e-6
        assert jobs.check_measures(circuit, results)


@pytest.mark.parametrize("method", jobs.METHODS)
def test_reorder_check_passes_and_catches_a_negated_root(tmp_path, method):
    circuit = _prepared(tmp_path, "c17")
    manager, trace = jobs.reorder_job(circuit, method)
    assert jobs.check_reorder(circuit, method, manager, trace) == []
    roots = list(circuit.roots)
    roots[1] = manager.negate(roots[1])
    assert jobs.check_reorder(circuit, method, manager, trace, roots)


def test_reorder_check_catches_growth_and_a_bad_size(tmp_path):
    circuit = _prepared(tmp_path, "add4")
    manager, trace = jobs.reorder_job(circuit, "sift")
    trace.final_size = trace.initial_size + 1
    problems = jobs.check_reorder(circuit, "sift", manager, trace)
    assert any("grew" in p for p in problems)
    assert any("shared_size" in p for p in problems)


def test_optimum_matches_the_oracle_and_brute_force(tmp_path):
    rng = random.Random(5)
    for n in (3, 5, 7):
        manager = BddManager(n)
        root = manager.build_from_truth_vector(
            "".join(rng.choice("01") for _ in range(1 << n)))
        table = oracle.enumerate_bdd(manager, root)
        assert jobs.optimum_shared_size(manager, [root]) == \
            oracle.best_order_exhaustive(table)[1]
    circuit = _load(tmp_path, "c17")
    sizes = []
    for order in itertools.permutations(range(circuit.manager.n)):
        manager = circuit.manager.clone()
        manager.set_order(order)
        sizes.append(manager.shared_size())
    roots = [root for _, root in circuit.outputs]
    assert jobs.optimum_shared_size(circuit.manager, roots) == min(sizes)


def test_tracer_records_layers_and_restores_the_library(tmp_path):
    circuit = _prepared(tmp_path, "add4")
    original = reorder.sift
    recorder = tracer.SpanRecorder()
    recorder.install()
    try:
        assert reorder.sift is not original
        recorder.on = True
        jobs.reorder_job(circuit, "sift")
        recorder.on = False
        jobs.reorder_job(circuit, "sift")      # not recorded
    finally:
        recorder.uninstall()
    assert reorder.sift is original
    calls, total, self_s, result, under, under_calls = \
        recorder.summarize(0, len(recorder))
    assert calls["reorder.sift"] == 1 and calls["manager.clone"] == 1
    assert calls["manager.swap"] > 0 and calls["measures.measure_report"] == 0
    assert under_calls["oracle.enumerate_bdd"] == 2 * len(circuit.roots)
    assert 0 <= self_s["reorder.sift"] <= total["reorder.sift"]
    assert result["manager.collect_garbage"] >= 0

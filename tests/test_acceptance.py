"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from bddinfo import (
    BddManager, TruthTable, VarProbabilities, all_joint_probabilities,
    best_order_exhaustive, conditional_entropy_set, conditional_entropy_var,
    entropy, enumerate_bdd, exact_measures, info_reorder, sift,
    weighted_sat_probability, window_permute,
)
from bddinfo.cli import main
from bddinfo.oracle import conditional_probability, joint_probability

from conftest import DATA, EXAMPLE1_VECTOR

TOL = 1e-9
EXAMPLE1_BLIF = str(DATA / "example1.blif")
C17_BLIF = str(DATA / "c17.blif")

_METHODS = (("info", info_reorder), ("sift", sift), ("window", window_permute))


def _report(name: str, failures: list, started: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s)")
    assert not failures, failures[:20]


def test_examples_1_to_4_reproduction():
    started = time.perf_counter()
    failures = []

    def expect(label, got, want, tol):
        if (abs(got - want) if tol else got != want) > (tol or 0):
            failures.append(f"{label}: got {got!r}, want {want!r}")

    m = BddManager(3)
    f = m.build_from_truth_vector(EXAMPLE1_VECTOR)
    m.register_root(f)
    w = VarProbabilities.uniform(3)
    expect("p(f=1)", weighted_sat_probability(m, f), 0.625, None)
    expect("p(f=1|x2=0)", weighted_sat_probability(m, f, w.forced(1, 0)), 0.75, None)
    expect("p(f=1|x2=1)", weighted_sat_probability(m, f, w.forced(1, 1)), 0.5, None)
    expect("H(f)", entropy(m, f), 0.954434, 1e-6)
    expect("H(f|x1)", conditional_entropy_var(m, f, 0), 0.405639, 1e-6)
    expect("H(f|x2)", conditional_entropy_var(m, f, 1), 0.905639, 1e-6)
    expect("H(f|x3)", conditional_entropy_var(m, f, 2), 0.905639, 1e-6)
    expect("H(f|x1x2)", conditional_entropy_set(m, f, (0, 1)), 0.25, TOL)
    if time.perf_counter() - started >= 1.0:
        failures.append("runtime exceeded 1 s")
    _report("examples-1-to-4-reproduction", failures, started)


def test_example_5_ordering(capsys):
    started = time.perf_counter()
    failures = []
    code = main(["reorder", EXAMPLE1_BLIF, "--method", "info",
                 "--trace", "--format", "json"])
    out = capsys.readouterr().out
    with capsys.disabled():
        if code != 0:
            failures.append(f"cli exit code {code}")
        else:
            record = json.loads(out)[0]
            if record["order_after"] != "x1,x2,x3":
                failures.append(f"final order {record['order_after']}")
            level0 = record["steps"][0]
            if level0["chosen"] != "x1":
                failures.append(f"level-0 choice {level0['chosen']}")
            scores = dict(map(tuple, level0["scores"]))
            for name, want in (("x1", 0.4056), ("x2", 0.9056), ("x3", 0.9056)):
                if abs(scores[name] - want) > 5e-5:
                    failures.append(f"score {name}: {scores[name]}")
            tie_step = json.loads(out)[0]["steps"][1]
            if not (tie_step["tie"] and tie_step["chosen"] == "x2"):
                failures.append(f"tie-break step: {tie_step}")
        _report("example-5-ordering", failures, started)


@pytest.fixture(scope="module")
def forced_weights():
    return {n: [(VarProbabilities.uniform(n).forced(v, 0),
                 VarProbabilities.uniform(n).forced(v, 1))
                for v in range(n)]
            for n in (1, 2, 3, 4, 5, 6)}


def _oracle_agreement(manager, root, tt, rng, failures, label, forced):
    n = tt.n

    def expect(what, got, want):
        if got is None or abs(got - want) > TOL:
            failures.append(f"{label} {what}: bdd={got!r} oracle={want!r}")

    subset = tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
    expect("p(f=1)", weighted_sat_probability(manager, root),
           float(tt.sat_probability()))
    profile = all_joint_probabilities(manager, root)
    report = exact_measures(tt, subsets=(subset,))
    expect("H(f)", entropy(manager, root), report.entropy)
    for v in range(n):
        expect(f"H(f|x{v})", conditional_entropy_var(manager, root, v),
               report.cond_entropy[v])
        for b in (0, 1):
            expect(f"p(f=1,x{v}={b})", profile.joint[v][b],
                   float(joint_probability(tt, v, b)))
            expect(f"p(f=1|x{v}={b})", profile.conditional[v][b],
                   float(conditional_probability(tt, v, b)))
            fw = weighted_sat_probability(manager, root, forced[v][b])
            got = profile.conditional[v][b]
            if got is None or abs(fw - got) > TOL:
                failures.append(
                    f"{label} forced-weight p(f=1|x{v}={b}): {fw!r} vs {got!r}")
    expect(f"H(f|{subset})",
           conditional_entropy_set(manager, root, subset),
           report.set_entropy[subset])


def test_oracle_equivalence_suite(forced_weights):
    started = time.perf_counter()
    failures = []
    rng = random.Random(1)
    n = 4
    for bits in range(1 << (1 << n)):
        tt = TruthTable(n, bits)
        manager = BddManager(n)
        root = manager.build_from_truth_vector(tt.to_string())
        _oracle_agreement(manager, root, tt, rng, failures, f"n=4 #{bits}",
                          forced_weights[n])
        if len(failures) > 20:
            break
    for n in (5, 6):
        for trial in range(1000):
            tt = TruthTable(n, rng.getrandbits(1 << n))
            manager = BddManager(n)
            root = manager.build_from_truth_vector(tt.to_string())
            _oracle_agreement(manager, root, tt, rng, failures,
                              f"n={n} #{trial}", forced_weights[n])
            if len(failures) > 20:
                break
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 60 s")
    _report("oracle-equivalence-suite", failures, started)


@pytest.fixture(scope="module")
def reorder_suite():
    """Shared run of the sampled reordering workload."""
    rng = random.Random(2)
    started = time.perf_counter()
    records = []
    for n, count in ((5, 200), (8, 50)):
        for trial in range(count):
            vector = format(rng.getrandbits(1 << n), f"0{1 << n}b")
            _, optimum = best_order_exhaustive(TruthTable.from_string(vector))
            for name, method in _METHODS:
                manager = BddManager(n)
                root = manager.build_from_truth_vector(vector)
                manager.register_root(root)
                before = (entropy(manager, root),
                          [conditional_entropy_var(manager, root, v)
                           for v in range(n)])
                trace = method(manager)
                after = (entropy(manager, root),
                         [conditional_entropy_var(manager, root, v)
                          for v in range(n)])
                records.append({
                    "label": f"n={n} #{trial} {name}",
                    "method": name,
                    "initial": trace.initial_size,
                    "final": trace.final_size,
                    "optimum": optimum,
                    "equivalent":
                        enumerate_bdd(manager, root).to_string() == vector,
                    "before": before,
                    "after": after,
                })
    return records, time.perf_counter() - started


def test_reordering_soundness_suite(reorder_suite):
    started = time.perf_counter()
    records, elapsed = reorder_suite
    failures = []
    for rec in records:
        if not rec["equivalent"]:
            failures.append(f"{rec['label']}: function changed")
        if rec["final"] < rec["optimum"]:
            failures.append(f"{rec['label']}: size {rec['final']} beats "
                            f"exhaustive optimum {rec['optimum']}")
        if rec["method"] in ("sift", "window") and rec["final"] > rec["initial"]:
            failures.append(f"{rec['label']}: size grew "
                            f"{rec['initial']} -> {rec['final']}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeded 60 s")
    print(f"  [suite workload: {len(records)} runs in {elapsed:.1f}s]")
    _report("reordering-soundness-suite", failures, started)


def test_measure_invariance_under_reordering(reorder_suite):
    started = time.perf_counter()
    records, _ = reorder_suite
    failures = []
    for rec in records:
        h0, cond0 = rec["before"]
        h1, cond1 = rec["after"]
        if abs(h0 - h1) > TOL:
            failures.append(f"{rec['label']}: H(f) {h0!r} -> {h1!r}")
        for v, (a, b) in enumerate(zip(cond0, cond1)):
            if abs(a - b) > TOL:
                failures.append(f"{rec['label']}: H(f|x{v}) {a!r} -> {b!r}")
    _report("measure-invariance-under-reordering", failures, started)


def test_table_shaped_reports_and_c17(capsys):
    started = time.perf_counter()
    failures = []
    code = main(["measures", C17_BLIF, "--format", "json"])
    table1 = capsys.readouterr().out
    if code != 0:
        failures.append(f"measures exit code {code}")
    else:
        rows = json.loads(table1)
        if not rows or any(set(r) != {"circuit", "output", "variable",
                                      "measure", "value"} for r in rows):
            failures.append("measures rows not Table-1 shaped")
    code = main(["compare", C17_BLIF, "--methods", "info,sift,window,none",
                 "--format", "json"])
    table2 = capsys.readouterr().out
    with capsys.disabled():
        if code != 0:
            failures.append(f"compare exit code {code} (equivalence is "
                            "verified inside each method)")
        else:
            rows = json.loads(table2)
            if any(set(r) != {"circuit", "method", "size", "millis"}
                   for r in rows):
                failures.append("compare rows not Table-2 shaped")
            for row in rows:
                note = "" if row["size"] <= 11 else "  [above soft target 11]"
                print(f"  c17 {row['method']}: {row['size']} nodes{note}")
        _report("table-shaped-reports-and-c17", failures, started)


def test_cli_determinism(tmp_path):
    started = time.perf_counter()
    failures = []
    vector_file = tmp_path / "vec.txt"
    vector_file.write_text("0110100110010110")
    commands = [
        ["measures", EXAMPLE1_BLIF, "--format", "csv"],
        ["measures", EXAMPLE1_BLIF, "--format", "json"],
        ["measures", C17_BLIF, "--format", "json"],
        ["measures", str(vector_file), "--format", "csv"],
        ["reorder", EXAMPLE1_BLIF, "--method", "info", "--trace",
         "--format", "json"],
        ["reorder", C17_BLIF, "--method", "sift", "--format", "json"],
        ["reorder", C17_BLIF, "--method", "window", "--format", "json"],
        ["compare", C17_BLIF, "--format", "csv"],
        ["compare", C17_BLIF, "--format", "json"],
        ["compare", str(DATA / "s27.blif"), "--format", "csv"],
        ["oracle-check", EXAMPLE1_BLIF],
        ["oracle-check", C17_BLIF],
    ]
    root = pathlib.Path(__file__).parent.parent
    # The child process does not inherit pytest's pythonpath setting.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    for argv in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-m", "bddinfo"] + argv,
                                  capture_output=True, cwd=root, env=env)
            outputs.append((proc.returncode, proc.stdout))
        if outputs[0] != outputs[1]:
            failures.append(f"{' '.join(argv)}: outputs differ")
        if outputs[0][0] != 0:
            failures.append(f"{' '.join(argv)}: exit {outputs[0][0]}")
    _report("cli-determinism", failures, started)

"""One traced pass of each of the benchmark's workloads.

``perfbench/tracer.py`` wraps library names by attribute name,
``reorder.copy_function`` and ``reorder.conditional_entropy_var``
among them, so a rename or a dropped import would break the benchmark
without failing a library test.  The reorder check itself calls
neither ``copy_function`` nor ``clone``: ``reorder.py`` keeps the import
for the tracer alone.
Each pass also runs the benchmark's own checks: the oracle and
joint-profile comparisons of ``measures``, and the permutation, size and
sampled-evaluation checks of the reorder workloads.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["measures", "reorder_info", "reorder_sift"])
def test_traced_pass_is_correct(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert "reorder.verify_clone_s" in result["metrics"]

"""One traced pass of the benchmark's reorder_sift workload.

``perfbench/tracer.py`` wraps ``reorder.copy_function`` (and other
library names) by attribute name, so a rename or a changed call in the
reorder check would break the benchmark without failing a library test.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_reorder_sift_pass_is_correct():
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "reorder_sift", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert "reorder.verify_clone_s" in result["metrics"]

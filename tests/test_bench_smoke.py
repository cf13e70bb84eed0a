"""One smoke pass of each benchmark workload, so a gate failure shows up
with the unit tests.  ``mid-weighted`` runs the cut loop's growing masters
through recycled HiGHS sessions.

Each pass takes a few seconds; its report goes to ``perfbench/out/``,
which git ignores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["unit-large", "small-exact", "mid-weighted"])
def test_benchmark_smoke_pass_is_correct(workload):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--smoke", "--seconds", "0"]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, run.stderr[-2000:]
    assert report["failed"] == 0, run.stderr[-2000:]

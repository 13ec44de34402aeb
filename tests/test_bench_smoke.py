"""One short pass of each benchmark workload, run as the benchmark runs it.

A library change that breaks a job builder in bench/worker.py, or changes
which jobs end in a math error, fails here.  Each run is one whole pass
over the seed-1 pool (about a second each).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the only math errors the pools raise: three_torsion on c3 rows 1-2 and on
# the irrational and random torsion families, once per job per pass
EXPECTED_FAILURES = {
    "c3_pipeline": {"three_torsion/c3_row1": 2, "three_torsion/c3_row2": 2},
    "torsion_scan": {"three_torsion/irrational": 10, "three_torsion/random": 10},
    "tower_queries": {},
}


@pytest.mark.parametrize("workload", sorted(EXPECTED_FAILURES))
def test_one_pass_of_each_workload(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    summary = lines[-1]
    assert summary["type"] == "summary"
    assert summary["workload"] == workload
    assert all(line["type"] == "job" for line in lines[:-1])
    passes = summary["passes"]
    assert summary["failures"] == {
        label: {"UnsupportedFactorization": count * passes}
        for label, count in EXPECTED_FAILURES[workload].items()}

"""The benchmark's own tests (perfbench/) and one short run of the
benchmark, each in a separate interpreter.

The tests purge `boxrep` from sys.modules and import it afresh from src/,
which leaves classes imported earlier by this suite out of step with the
package; a subprocess keeps the two suites apart. They check the tracer's
hooks on the package and the benchmark checker's witnesses against the
oracle. The run takes one pass of every workload, so every call shape the
benchmark uses, its `Coloring(colour, k)` and its `over_limit` read among
them, is exercised against this checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_suite_passes():
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-2000:]


def test_benchmark_runs_one_pass_of_every_workload():
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-2000:]
    results = [json.loads(ln) for ln in res.stdout.splitlines() if ln.startswith("{")]
    assert len(results) == 3
    for result in results:
        assert result["correct"] is True and result["failed"] == 0

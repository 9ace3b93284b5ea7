"""The benchmark's own tests (perfbench/), run in a separate interpreter.

They purge `boxrep` from sys.modules and import it afresh from src/, which
leaves classes imported earlier by this suite out of step with the package;
a subprocess keeps the two suites apart. They check the tracer's hooks on
the package and the benchmark checker's witnesses against the oracle.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_suite_passes():
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-4000:] + res.stderr[-2000:]

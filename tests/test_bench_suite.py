"""The benchmark's own unit tests run with the package's tests.

`bench/run.py` and `bench/test_bench.py` build their inputs from
`StructureConstants.pairs()` and check every output against facts computed
apart from the program, so a change to the package can break the benchmark
without failing any test here.  This runs `python3 -m unittest discover -s
bench` from the repository root, as the benchmark's README does.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

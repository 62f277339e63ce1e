"""The benchmark's own tests, run as one Tier-1 case.

`perfbench/tests` checks the benchmark's contract against the package: its
tracer wraps the module-level names through which the layers call each other
(`interval.multiply`, `interval.left_divides`, `interval.length`, ...), and
asserts, among others, that a build makes 2 |G| divisor tests.  Both test
directories import from their own `conftest`, so they cannot be collected in
one session; the suite runs in a subprocess instead.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]

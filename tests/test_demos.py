"""Each demo runs to completion and prints exactly its recorded output."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(
    name[:-3] for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py")
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    with open(os.path.join(ROOT, "tests", "golden", "demos", f"{name}.txt")) as handle:
        assert result.stdout == handle.read()

"""The test configuration itself: what a failing test prints under it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    # as CI runs the suite: development mode, warnings raised as errors, pyproject's filters
    (tmp_path / "test_failing.py").write_text(FAILING)
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "pytest",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                           "-p", "no:cacheprovider", "test_failing.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out

"""The test configuration itself: pytest's settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0
'''


def test_failing_property_test_is_reported(tmp_path):
    # warnings are errors, and Hypothesis imports libcst to print a patch for
    # a failing example; a warning raised there must not crash the test run
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "FAILED test_fails.py::test_fails" in output

"""The tooling around the package: pytest's settings in pyproject.toml, and
the benchmark's cost counter in perfbench/."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

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


TINY_SYNTHESIS = """\
surface: {rows: 4, cols: 4}
synthesis: {grid_n: 16, swarm_size: 4, iterations: 5, stagnation_window: 0}
evaluation: {grid_n: 9}
"""

COUNTED_SYNTHESIS = """\
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
import tracing
batches = tracing.install_cost_counter()
from tmems.cli import main
assert main(["synthesize", "--config", sys.argv[2], "--out", sys.argv[3]]) == 0
print(json.dumps(batches))
"""


def test_benchmark_counts_every_scored_schedule(tmp_path):
    # perfbench/ reads cost_evals from the blocks of each phi_batch call's
    # first argument: a search that scored around that call would read 0
    config = tmp_path / "tiny.yaml"
    config.write_text(TINY_SYNTHESIS)
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-B", "-c", COUNTED_SYNTHESIS, str(ROOT), str(config),
                          str(out)], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    batches = json.loads(run.stdout.splitlines()[-1])
    iterations = json.loads((out / "summary.json").read_text())["results"]["iterations"]
    assert iterations == 5
    assert batches == [4] * (iterations + 1)
    assert sum(batches) == 4 * (iterations + 1)

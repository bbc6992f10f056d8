"""The benchmark checks every op's output against seed-0 golden digests; a
drift in the screen workloads' outputs must fail here, in the test suite, and
not only as incorrect outputs when the benchmark runs."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402


@pytest.mark.parametrize("name", ["screen_paper", "screen_mid"])
def test_first_screen_cycle_matches_the_goldens(name):
    workload = run.make_workload(name, run.DEFAULT_SEED, tiny=False, workdir=None)
    ops = [workload.run_op(i) for i in range(workload.cycle_len)]
    assert [op.errors for op in ops] == [[]] * workload.cycle_len
    assert [op.digest for op in ops] == run.load_goldens(name)

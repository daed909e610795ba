"""The per-layer counts repeat exactly across hash seeds.

Run from the repository root (takes about ten seconds)::

    python -m pytest perfbench/test_determinism.py

For a short cut of each workload, two traced passes run with different
``PYTHONHASHSEED`` values; every count metric and every output must agree.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Call  # noqa: E402

CUTS = {
    # the genus-2 matrix rows of one model: census, add_cls, subgroup_span
    "verify_all": lambda: [Call(("verify", "--only", "X1(13)"), "verify")],
    # the smallest field of each model
    "tower_derive": lambda: list({c.model: c for c in reversed(workloads.TowerDerive(1).calls)}.values()),
    "cli_calls": lambda: workloads.CliCalls(1).calls[:8],
}


def _traced_pass(runner, calls, hash_seed):
    env = dict(runner.env, PYTHONHASHSEED=str(hash_seed))
    samples, _ = runner.run_pass(calls, trace=True, env=env)
    for s in samples:
        assert s.rc == 0, (s.call.argv, s.err.decode())
        assert s.trace is not None, s.call.argv
    counts = {
        name: value
        for name, (value, unit) in layers.layer_metrics([s.trace for s in samples]).items()
        if unit == "count"
    }
    return counts, [s.out for s in samples]


@pytest.fixture
def runner():
    run.WORK.mkdir(exist_ok=True)
    yield run.Runner(run.clock() + run.RUN_DEADLINE_S)
    shutil.rmtree(run.WORK, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(CUTS))
def test_counts_repeat_across_hash_seeds(runner, workload):
    calls = CUTS[workload]()
    counts_1, outs_1 = _traced_pass(runner, calls, 1)
    counts_2, outs_2 = _traced_pass(runner, calls, 2)
    assert outs_1 == outs_2
    assert counts_1 == counts_2
    assert any(counts_1.values())

"""The benchmark's own output checks pass on this tree.

``perfbench/workloads.py`` checks every operation it times, so a change that
breaks one of those checks would otherwise show only when the benchmark runs.
These tests run a few steps of each in-process workload, and the set-up of
``cold-cli``, which makes all of its CLI calls in process and raises on a
non-zero exit.  ``perfbench/`` is only read.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


@pytest.mark.parametrize("name", ["quadric-population", "random-search", "exact-proof"])
def test_workload_steps_pass_their_checks(perfbench, name):
    tracing, workloads = perfbench
    wl = workloads.WORKLOADS[name](SEED, tracing.Tracer(), dict(os.environ))
    for _ in range(3):
        ops, failed = wl.step()
        assert ops > 0 and failed == 0, wl.errors
    assert wl.errors == []


def test_cold_cli_set_up_runs_every_call(perfbench):
    tracing, workloads = perfbench
    wl = workloads.ColdCli(SEED, tracing.Tracer(), dict(os.environ))
    assert len(wl.calls) == 2 * len(workloads.ColdCli.KINDS)
    assert all(wl._well_formed(argv, expected) for argv, _, expected in wl.calls)

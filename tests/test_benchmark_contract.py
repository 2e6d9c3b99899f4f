"""The benchmark's traced replay against the package it measures.

``perfbench/replay.py`` rebuilds every adaptation step from the package's
public pieces (``RegressorHistory``, ``variant_gains``, the regressor
builders, ``update_memory_regressor``, ``solve_regularized``) and reads
``FilterConfig.regressor_mode``, ``is_scalar``, ``is_memory`` and
``block_count``.  Replaying one seed of two workloads checks that every
name it reads still exists and that its arithmetic still matches
``filter_step`` bit for bit.  The benchmark files are only imported, and
no bytecode is written next to them.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["stream-order1", "paper-panels"])
def test_replay_matches_filter_step(workload, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from replay import Replay

    replay = Replay()
    replay.run_plan(workloads.build(workload, 1))
    assert replay.steps > 0
    assert replay.max_dw == 0.0
    assert replay.singular == 0

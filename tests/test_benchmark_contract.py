"""The benchmark's traced replay against the package it measures.

``perfbench/replay.py`` rebuilds every adaptation step from the package's
public pieces (``RegressorHistory``, ``variant_gains``, the regressor
builders, ``update_memory_regressor``, ``solve_regularized``) and reads
``FilterConfig.regressor_mode``, ``is_scalar``, ``is_memory`` and
``block_count``.  Replaying one seed of each workload checks that every
name it reads still exists and that its arithmetic still matches
``filter_step`` bit for bit.  The benchmark files are only imported, and
no bytecode is written next to them.

The long-echo references pin ``run_experiment``'s recursive streams at the
benchmark's own shape, which no other test runs.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bspapa import experiment_from_dict, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["stream-order1", "paper-panels", "long-echo"])
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


@pytest.mark.parametrize("seed", [42, 1601])
def test_long_echo_streams_match_the_benchmark_references(seed, monkeypatch):
    """The long-echo panel (L=4096, M=16), the shape ``run_experiment``'s
    recursive streams run at in the benchmark, in one call per seed: every
    recorded trace lies within ``workloads.REFERENCE_TOLERANCE_DB`` of
    ``references/long-echo.json``, the check ``run.py`` makes of each rep."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    expected = json.loads((PERFBENCH / "references" / "long-echo.json").read_text())["seeds"][str(seed)]
    traces, summary = run_experiment(experiment_from_dict(workloads.long_echo_dict(seed)))
    assert not summary.failures
    assert sorted(f"long/{t.label}" for t in traces) == sorted(expected)
    for trace in traces:
        reference = np.asarray(expected[f"long/{trace.label}"])
        assert trace.values.shape == reference.shape, trace.label
        deviation = float(np.max(np.abs(trace.values - reference)))
        assert deviation <= workloads.REFERENCE_TOLERANCE_DB, (trace.label, deviation)

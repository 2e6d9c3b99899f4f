"""Harness behavior: runs, traces, CSV files, config parsing, and the CLI."""

import csv
import hashlib
import json
import os
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter  # the independent reference for the synthesized bits

from bspapa import bench, filters
from bspapa import (
    VARIANTS,
    ConfigError,
    EchoScenario,
    ExperimentConfig,
    FilterConfig,
    RegressorHistory,
    experiment_from_dict,
    gen_excitation,
    make_block_sparse_ir,
    misalignment_db,
    preset_config,
    run_experiment,
    scale_noise_for_snr,
    synthesize_scenario,
    write_traces_csv,
)
from bspapa.bench import RunSummary, SegmentSummary, _substream_seed, with_seed
from bspapa.cli import main as cli_main
from bspapa.filters import _RECURSE_FROM, _panel_batches


def small_scenario(seed=5, total=1200, switch=600, snr_db=30.0, kind="ar1"):
    first = make_block_sparse_ir(32, [(9, 12)], seed=11)
    second = make_block_sparse_ir(32, [(9, 12), (25, 28)], seed=12)
    schedule = [(0, first)]
    if switch is not None and switch < total:
        schedule.append((switch, second))
    return EchoScenario(
        schedule=tuple(schedule),
        excitation=kind,
        pole=0.8 if kind == "ar1" else None,
        snr_db=snr_db,
        seed=seed,
        total_samples=total,
    )


def small_panel(**overrides):
    base = dict(filter_length=32, projection_order=4, step_size=0.2, regularization=0.01)
    base.update(overrides)
    return [
        ("BS-PAPA(P=4)", FilterConfig("bs-papa", group_size=4, **base)),
        ("PAPA", FilterConfig("papa", **base)),
    ]


class TestScenarioSynthesis:
    def test_deterministic(self):
        xa, da = synthesize_scenario(small_scenario())
        xb, db = synthesize_scenario(small_scenario())
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(da, db)

    def test_snr_holds_per_segment(self):
        sc = small_scenario(snr_db=20.0)
        x, d = synthesize_scenario(sc)
        for start, end, response in sc.segments():
            clean = lfilter(response.taps, [1.0], x)[start:end]
            noise = d[start:end] - clean
            realized = 10.0 * np.log10(np.mean(clean**2) / np.mean(noise**2))
            assert realized == pytest.approx(20.0, abs=1e-9)

    def test_noiseless_mode(self):
        sc = small_scenario(snr_db=None, switch=None)
        x, d = synthesize_scenario(sc)
        np.testing.assert_array_equal(d, lfilter(sc.schedule[0][1].taps, [1.0], x))

    @pytest.mark.parametrize("total, switch", [(1200, 600), (20, 10)])  # longer and shorter than L
    def test_two_noisy_segments_have_the_bits_of_lfilter(self, total, switch):
        sc = small_scenario(total=total, switch=switch, snr_db=20.0)
        x, d = synthesize_scenario(sc)
        white = gen_excitation(total, _substream_seed(sc.seed, 0), "white")
        np.testing.assert_array_equal(x, lfilter([1.0], [1.0, -sc.pole], white))
        expected = np.empty(total)
        for j, (start, end, response) in enumerate(sc.segments()):
            clean = lfilter(response.taps, [1.0], x)[start:end]
            noise = scale_noise_for_snr(clean, sc.snr_db, _substream_seed(sc.seed, 1 + j))
            expected[start:end] = clean + noise
        assert len(sc.segments()) == 2
        assert d.tobytes() == expected.tobytes()


class TestRunExperiment:
    def test_frozen_panel_entry_stays_at_zero_db(self):
        frozen = [("frozen", FilterConfig("apa", 32, 4, step_size=0.0))]
        exp = ExperimentConfig(scenario=small_scenario(), panel=frozen, trace_decimation=1)
        traces, summary = run_experiment(exp)
        np.testing.assert_array_equal(traces[0].values, np.zeros(1200))
        assert summary.row("frozen", 0).time_to_threshold is None

    def test_misalignment_jump_at_switch(self):
        exp = ExperimentConfig(scenario=small_scenario(), panel=small_panel(), trace_decimation=1)
        traces, _ = run_experiment(exp)
        for trace in traces:
            assert trace.values[600] > trace.values[599]

    def test_trace_matches_misalignment_op(self):
        # run_experiment records exactly what process() plus misalignment_db give
        sc = small_scenario(total=300, switch=None)
        cfg = FilterConfig("bs-papa", 32, 4, group_size=4, step_size=0.2)
        exp = ExperimentConfig(scenario=sc, panel=[("one", cfg)], trace_decimation=1)
        traces, _ = run_experiment(exp)

        from bspapa import AdaptiveFilter

        x, d = synthesize_scenario(sc)
        filt = AdaptiveFilter(cfg)
        expected = np.empty(300)
        for n in range(300):
            filt.process(x[n], d[n])
            expected[n] = misalignment_db(sc.schedule[0][1].taps, filt.weights)
        np.testing.assert_array_equal(traces[0].values, expected)

    def test_panel_independence(self):
        exp_full = ExperimentConfig(scenario=small_scenario(), panel=small_panel(), trace_decimation=7)
        exp_single = ExperimentConfig(
            scenario=small_scenario(), panel=small_panel()[1:], trace_decimation=7
        )
        full, _ = run_experiment(exp_full)
        single, _ = run_experiment(exp_single)
        np.testing.assert_array_equal(full[1].values, single[0].values)

    def test_solver_failure_recorded_other_runs_continue(self):
        # delta=0 on silent input: the first projection system is exactly singular
        sc = small_scenario(total=50, switch=None)
        doomed = FilterConfig("apa", 32, 4, step_size=0.1, regularization=0.0)
        healthy = FilterConfig("apa", 32, 4, step_size=0.1, regularization=0.01)
        exp = ExperimentConfig(
            scenario=sc, panel=[("doomed", doomed), ("healthy", healthy)], trace_decimation=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the singular path must not warn
            traces, summary = run_experiment(exp)
        assert [t.label for t in traces] == ["healthy"]
        assert "doomed" in summary.failures
        # apa pins group_size to L=32; efficient count is (P+M-1)*N = 35
        assert summary.row("healthy", 0).mults_per_step == 35
        assert summary.rows[0].label == "healthy"

    def test_batched_entries_equal_their_solo_runs(self):
        # every variant, two (L, M) batches plus the scalar batch, memory rows
        # among plain ones, distinct mu/delta; 300 samples wrap every ring
        sc = small_scenario(total=300, switch=150)
        base = dict(filter_length=32, projection_order=3)
        panel = [
            ("apa", FilterConfig("apa", step_size=0.3, regularization=0.02, **base)),
            ("mpapa", FilterConfig("mpapa", step_size=0.2, regularization=0.01, **base)),
            ("papa", FilterConfig("papa", step_size=0.25, regularization=0.03, **base)),
            ("bs-mpapa", FilterConfig("bs-mpapa", group_size=4, step_size=0.4, **base)),
            ("bs-papa", FilterConfig("bs-papa", group_size=8, step_size=0.5, **base)),
            ("pnlms", FilterConfig("pnlms", 32, step_size=0.3, regularization=0.05)),
            ("bs-papa M=2", FilterConfig("bs-papa", 32, 2, group_size=4, step_size=0.6)),
            ("bs-pnlms", FilterConfig("bs-pnlms", 32, group_size=8, step_size=0.2)),
            ("bs-mpapa M=2", FilterConfig("bs-mpapa", 32, 2, group_size=16, step_size=0.3)),
        ]
        traces, summary = run_experiment(ExperimentConfig(scenario=sc, panel=panel, trace_decimation=1))
        assert [t.label for t in traces] == [label for label, _ in panel] and not summary.failures

        from bspapa import AdaptiveFilter

        x, d = synthesize_scenario(sc)
        for trace, (label, cfg) in zip(traces, panel):
            solo, _ = run_experiment(ExperimentConfig(scenario=sc, panel=[(label, cfg)], trace_decimation=1))
            assert np.array_equal(trace.values, solo[0].values), label
            filt = AdaptiveFilter(cfg)
            streamed = np.empty(300)
            for start, end, response in sc.segments():
                for n in range(start, end):
                    filt.process(x[n], d[n])
                    streamed[n] = misalignment_db(response.taps, filt.weights)
            assert np.array_equal(trace.values, streamed), label

    @pytest.mark.parametrize("order", [3, 8])
    def test_row_view_entries_equal_their_solo_runs(self, order):
        # unit-gain rows (apa, bs-papa P=L), one-tap rows (papa), in-place
        # rows (bs-papa P=4) and memory rows in one batch
        sc = small_scenario(total=300, switch=150)
        base = dict(filter_length=32, projection_order=order)
        panel = [
            ("apa", FilterConfig("apa", step_size=0.3, **base)),
            ("bs-papa P=L", FilterConfig("bs-papa", group_size=32, step_size=0.2, **base)),
            ("papa", FilterConfig("papa", step_size=0.25, regularization=0.03, **base)),
            ("bs-papa P=4", FilterConfig("bs-papa", group_size=4, step_size=0.5, **base)),
            ("mpapa", FilterConfig("mpapa", step_size=0.2, **base)),
            ("bs-mpapa", FilterConfig("bs-mpapa", group_size=4, step_size=0.4, **base)),
        ]
        [(indices, batch)] = _panel_batches([cfg for _, cfg in panel])
        assert indices == [2, 3, 0, 1, 4, 5]  # built rows, unit-gain rows, memory rows
        traces, summary = run_experiment(ExperimentConfig(scenario=sc, panel=panel, trace_decimation=1))
        assert not summary.failures

        from bspapa import AdaptiveFilter

        x, d = synthesize_scenario(sc)
        for trace, (label, cfg) in zip(traces, panel):
            solo, _ = run_experiment(ExperimentConfig(scenario=sc, panel=[(label, cfg)], trace_decimation=1))
            assert np.array_equal(trace.values, solo[0].values), label
            filt = AdaptiveFilter(cfg)
            streamed = np.empty(300)
            for start, end, response in sc.segments():
                for n in range(start, end):
                    filt.process(x[n], d[n])
                    streamed[n] = misalignment_db(response.taps, filt.weights)
            assert np.array_equal(trace.values, streamed), label

    def test_failure_in_mid_batch_leaves_the_others_unchanged(self, monkeypatch):
        # The input goes silent at sample 120.  At M=1 a delta=0 system stays
        # regular while the window holds a nonzero sample and turns exactly
        # singular once it holds none; at M>1 it would be singular at sample 0.
        sc = small_scenario(total=300, switch=None)
        x, d = synthesize_scenario(sc)
        x = x.copy()
        x[120:] = 0.0
        monkeypatch.setattr("bspapa.bench.synthesize_scenario", lambda scenario: (x, d))
        base = dict(filter_length=32, projection_order=1, step_size=0.2)
        panel = [
            ("BS-PAPA(P=4)", FilterConfig("bs-papa", group_size=4, **base)),
            ("doomed", FilterConfig("bs-papa", group_size=8, regularization=0.0, **base)),
            ("MPAPA", FilterConfig("mpapa", **base)),
            ("doomed memory", FilterConfig("mpapa", regularization=0.0, **base)),
            ("PNLMS", FilterConfig("pnlms", **base)),
            ("doomed scalar", FilterConfig("pnlms", regularization=0.0, **base)),
            ("PAPA", FilterConfig("papa", **base)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the singular path must not warn
            traces, summary = run_experiment(ExperimentConfig(scenario=sc, panel=panel, trace_decimation=1))

        from bspapa import AdaptiveFilter, SingularSystemError

        assert list(summary.failures) == ["doomed", "doomed memory", "doomed scalar"]
        for label, message in summary.failures.items():
            filt = AdaptiveFilter(dict(panel)[label])
            with pytest.raises(SingularSystemError) as excinfo:
                for n in range(300):
                    filt.process(x[n], d[n])
            assert n > 120
            assert message == f"aborted at sample {n}: {excinfo.value}"
        assert [t.label for t in traces] == ["BS-PAPA(P=4)", "MPAPA", "PNLMS", "PAPA"]
        for trace in traces:
            cfg = dict(panel)[trace.label]
            solo, _ = run_experiment(ExperimentConfig(scenario=sc, panel=[(trace.label, cfg)], trace_decimation=1))
            assert np.array_equal(trace.values, solo[0].values), trace.label

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_desired_sample_aborts_entry(self, monkeypatch, bad):
        sc = small_scenario(total=300, switch=None)
        x, d = synthesize_scenario(sc)
        d = d.copy()
        d[100] = bad
        monkeypatch.setattr("bspapa.bench.synthesize_scenario", lambda scenario: (x, d))
        panel = small_panel() + [
            ("BS-PNLMS", FilterConfig("bs-pnlms", 32, 1, group_size=4, step_size=0.2)),
            ("BS-MPAPA", FilterConfig("bs-mpapa", 32, 4, group_size=4, step_size=0.2)),
        ]
        traces, summary = run_experiment(
            ExperimentConfig(scenario=sc, panel=panel, trace_decimation=1)
        )
        assert traces == [] and summary.rows == []
        for label, _ in panel:
            assert summary.failures[label].startswith("diverged at sample 100:")

    def test_a_memory_filter_that_peaks_far_above_zero_db_and_recovers_is_no_failure(self):
        """A rule that fails a diverging filter (ROADMAP item 10) must pass this one: mpapa at
        M=8, mu=1 on an AR(1) echo path peaks at +141 dB near sample 245, with finite weights,
        then settles within a few dB of apa's steady state.  A plain dB ceiling would have to
        sit above that peak."""
        scenario = EchoScenario(schedule=((0, make_block_sparse_ir(64, [(9, 24)], seed=3)),),
                                pole=0.9, snr_db=30.0, seed=19, total_samples=4000)
        panel = [(v, FilterConfig(v, 64, 8, step_size=1.0)) for v in ("mpapa", "apa")]
        traces, summary = run_experiment(ExperimentConfig(scenario, panel, trace_decimation=1))
        assert summary.failures == {}
        peak = traces[0].values.max()
        assert 130.0 < peak < 150.0 and 200 < traces[0].values.argmax() < 300, peak
        steady = {label: summary.row(label, 0).steady_state_db for label, _ in panel}
        assert steady["mpapa"] < -15.0 and abs(steady["mpapa"] - steady["apa"]) < 5.0, steady

    def test_steady_state_is_tail_mean(self):
        exp = ExperimentConfig(scenario=small_scenario(switch=None, total=1000),
                               panel=small_panel(), trace_decimation=1)
        traces, summary = run_experiment(exp)
        for trace in traces:
            row = summary.row(trace.label, 0)
            assert row.steady_state_db == pytest.approx(float(np.mean(trace.values[-100:])))


class ShardFault(Exception):
    """Raised by a patched stream in a forked shard; picklable by its import path."""


FORK = os.fork  # as imported, before any test patches it


def os_threads() -> int:
    """The OS threads of this process, from ``/proc/self/status``; 0 where that is missing."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except OSError:
        return 0


def see_cpus(monkeypatch, count):
    """Make ``run_experiment`` see ``count`` CPUs, and return the list each fork made here
    appends ``(parent, child, threads)`` to, with the parent's OS threads at that moment."""
    forks = []

    def fork():
        pid = FORK()
        if pid:
            forks.append((os.getpid(), pid, os_threads()))
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "fork", fork)
    return forks


def outcome(exp):
    """Everything ``run_experiment`` returns, as comparable values with the traces' bits."""
    traces, summary = run_experiment(exp)
    return [(t.label, t.sample_indices.tolist(), t.values.tobytes()) for t in traces], summary


def silent_after_120(monkeypatch):
    """Scenario synthesis patched so the input goes silent at sample 120 of 300 (see
    ``test_failure_in_mid_batch_leaves_the_others_unchanged``)."""
    sc = small_scenario(total=300, switch=None)
    x, d = synthesize_scenario(sc)
    x = x.copy()
    x[120:] = 0.0
    monkeypatch.setattr("bspapa.bench.synthesize_scenario", lambda scenario: (x, d))
    return sc


def nan_at_100(monkeypatch):
    """Scenario synthesis patched so the desired sample 100 of 300 is NaN."""
    sc = small_scenario(total=300, switch=None)
    x, d = synthesize_scenario(sc)
    d = d.copy()
    d[100] = np.nan
    monkeypatch.setattr("bspapa.bench.synthesize_scenario", lambda scenario: (x, d))
    return sc


class TestShards:
    """``run_experiment`` deals the entries over the CPUs, shards past the first in forked
    children; the results are those of the one-shard run, and no child outlives a call."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def mixed():
        base = dict(filter_length=32, projection_order=3, step_size=0.3)
        panel = [
            ("pnlms", FilterConfig("pnlms", 32, step_size=0.3)),
            ("apa", FilterConfig("apa", **base)),
            ("bs-pnlms", FilterConfig("bs-pnlms", 32, group_size=8, step_size=0.2)),
            ("papa", FilterConfig("papa", **base)),
            ("bs-mpapa", FilterConfig("bs-mpapa", group_size=4, **base)),
            ("bs-papa", FilterConfig("bs-papa", group_size=8, **base)),
            ("mpapa", FilterConfig("mpapa", **base)),
        ]
        return ExperimentConfig(scenario=small_scenario(total=300, switch=150), panel=panel, trace_decimation=1)

    @pytest.mark.parametrize("name", ["fig2", "fig3", "mixed"])
    def test_a_sharded_run_equals_the_one_shard_run(self, monkeypatch, name):
        if name == "mixed":
            exp = self.mixed()
        else:
            exp = preset_config(name, total_samples=1800, switch_sample=900, trace_decimation=1)
        forks = see_cpus(monkeypatch, 1)
        serial = outcome(exp)
        assert not forks and not serial[1].failures
        for cpus in (2, 3, 64):
            forks = see_cpus(monkeypatch, cpus)
            assert outcome(exp) == serial, cpus
            assert len(forks) == min(cpus, len(exp.panel)) - 1

    @pytest.mark.parametrize("fault", [nan_at_100, silent_after_120])
    def test_an_entry_failing_in_a_child_reads_as_in_the_serial_run(self, monkeypatch, fault):
        sc = fault(monkeypatch)
        base = dict(filter_length=32, projection_order=1, step_size=0.2)
        panel = [  # the doomed entries are odd, so a second shard runs them
            ("BS-PAPA(P=4)", FilterConfig("bs-papa", group_size=4, **base)),
            ("doomed", FilterConfig("bs-papa", group_size=8, regularization=0.0, **base)),
            ("MPAPA", FilterConfig("mpapa", **base)),
            ("doomed memory", FilterConfig("mpapa", regularization=0.0, **base)),
            ("PNLMS", FilterConfig("pnlms", **base)),
            ("doomed scalar", FilterConfig("pnlms", regularization=0.0, **base)),
        ]
        exp = ExperimentConfig(scenario=sc, panel=panel, trace_decimation=1)
        see_cpus(monkeypatch, 1)
        serial = outcome(exp)
        failures = serial[1].failures
        if fault is nan_at_100:
            assert not serial[0] and len(failures) == 6
            assert all(m.startswith("diverged at sample 100:") for m in failures.values())
        else:
            assert list(failures) == ["doomed", "doomed memory", "doomed scalar"]
            assert all(m.startswith("aborted at sample 1") for m in failures.values())
        forks = see_cpus(monkeypatch, 2)
        assert outcome(exp) == serial and len(forks) == 1

    def test_an_exception_in_a_child_reaches_the_parent(self, monkeypatch):
        stream = bench._stream_batch

        def faulty(batch, entries, *args):
            if entries[0] % 2:  # the second of two shards
                raise ShardFault(f"entries {entries}")
            return stream(batch, entries, *args)

        monkeypatch.setattr(bench, "_stream_batch", faulty)
        forks = see_cpus(monkeypatch, 2)
        with pytest.raises(ShardFault, match=r"entries \[1\]"):
            run_experiment(ExperimentConfig(scenario=small_scenario(total=50), panel=small_panel()))
        assert len(forks) == 1

    def test_a_child_that_sends_nothing_is_an_error(self, monkeypatch):
        stream = bench._stream_batch
        monkeypatch.setattr(bench, "_stream_batch", lambda batch, entries, *args: (
            os._exit(3) if entries[0] % 2 else stream(batch, entries, *args)))
        see_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"panel entries \[1\] exited with code 3"):
            run_experiment(ExperimentConfig(scenario=small_scenario(total=50), panel=small_panel()))

    def test_a_failed_child_ends_the_wait(self, monkeypatch):
        stream = bench._stream_batch

        def exit_or_sleep(batch, entries, *args):
            if entries[0] == 1:
                os._exit(3)
            if entries[0] == 2:
                time.sleep(60)  # the children after a failed one are not waited for
            return stream(batch, entries, *args)

        monkeypatch.setattr(bench, "_stream_batch", exit_or_sleep)
        panel = small_panel() + [("MPAPA", FilterConfig("mpapa", 32, 4, step_size=0.2))]
        forks = see_cpus(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"panel entries \[1\] exited with code 3"):
            run_experiment(ExperimentConfig(scenario=small_scenario(total=50), panel=panel))
        assert len(forks) == 2
        assert time.perf_counter() - start < 30

    def test_an_exception_here_kills_the_children(self, monkeypatch):
        stream = bench._stream_batch

        def stuck(batch, entries, *args):
            if entries[0] % 2:
                time.sleep(60)  # a child that would outlive the call unless killed
                return stream(batch, entries, *args)
            raise ShardFault("in this process")

        monkeypatch.setattr(bench, "_stream_batch", stuck)
        see_cpus(monkeypatch, 2)
        start = time.perf_counter()
        with pytest.raises(ShardFault, match="in this process"):
            run_experiment(ExperimentConfig(scenario=small_scenario(total=50), panel=small_panel()))
        assert time.perf_counter() - start < 30

    @pytest.mark.parametrize("why", ["one cpu", "a second thread"])
    def test_no_fork_on_one_cpu_or_beside_a_thread(self, monkeypatch, why):
        see_cpus(monkeypatch, 1 if why == "one cpu" else 2)

        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        if why == "a second thread":
            thread.start()
        try:
            traces, summary = run_experiment(ExperimentConfig(scenario=small_scenario(total=50), panel=small_panel()))
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=30)
        assert not thread.is_alive()
        assert [t.label for t in traces] == [label for label, _ in small_panel()] and not summary.failures

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_every_fork_leaves_the_parent_one_thread(self, monkeypatch):
        """OpenBLAS stops its thread pools at a fork, so the process forks its shards
        with one OS thread, even just after a product woke the pools."""
        forks = see_cpus(monkeypatch, 3)
        panel = small_panel() + [("MPAPA", FilterConfig("mpapa", 32, 4, step_size=0.2))]
        exp = ExperimentConfig(scenario=small_scenario(total=300), panel=panel)
        run_experiment(exp)
        np.ones((4096, 16)) @ np.ones((16, 16))  # large enough for OpenBLAS to thread it
        run_experiment(exp)
        assert [parent for parent, _, _ in forks] == [os.getpid()] * 4
        assert [threads for _, _, threads in forks] == [1] * 4


def unit_entry(length, order, variant="apa", **settings):
    """A unit-gain projection entry: ``apa``, or ``bs-papa`` with one block of P = L."""
    group = length if variant == "bs-papa" else None
    return FilterConfig(variant, length, order, group_size=group, step_size=0.3, **settings)


class TestUnitGainRows:
    """Unit-gain projection rows, whose Gram matrix a batch of order ``_RECURSE_FROM``
    or more updates by one matrix-vector product a sample: an entry's bits are those of
    its one-entry run beside other rows, in a shard, and after a row beside it left."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("variant", ["apa", "bs-papa"])
    @pytest.mark.parametrize("length,order,total", [(32, 3, 600), (1024, 8, 600), (4096, 16, 300)])
    def test_a_unit_gain_entry_keeps_its_bits_in_a_batch_and_a_shard(self, monkeypatch, variant, length, order, total):
        response = make_block_sparse_ir(length, [(9, 24)], seed=3)
        sc = EchoScenario(schedule=((0, response),), total_samples=total, seed=7)
        unit = (variant, unit_entry(length, order, variant))
        papa = ("PAPA", FilterConfig("papa", length, order, step_size=0.3))
        [(_, batch)] = _panel_batches([papa[1], unit[1]])
        assert batch.recursive == (order >= _RECURSE_FROM)
        forks = see_cpus(monkeypatch, 2)
        solo = outcome(ExperimentConfig(scenario=sc, panel=[unit], trace_decimation=1))
        assert not forks and not solo[1].failures  # one entry is one shard
        exp = ExperimentConfig(scenario=sc, panel=[papa, unit], trace_decimation=1)
        sharded = outcome(exp)
        assert len(forks) == 1
        forks = see_cpus(monkeypatch, 1)
        batched = outcome(exp)
        assert batched == sharded and not forks
        assert batched[0][1:] == solo[0]
        assert [r for r in batched[1].rows if r.label == variant] == solo[1].rows

    def test_a_mixed_recursive_panel_keeps_its_bits_on_any_cpu_count(self, monkeypatch):
        base = dict(filter_length=32, projection_order=_RECURSE_FROM, step_size=0.3)
        panel = [
            ("pnlms", FilterConfig("pnlms", 32, step_size=0.3)),
            ("apa", FilterConfig("apa", **base)),
            ("papa", FilterConfig("papa", **base)),
            ("bs-mpapa", FilterConfig("bs-mpapa", group_size=4, **base)),
            ("bs-papa", FilterConfig("bs-papa", group_size=32, **base)),
            ("mpapa", FilterConfig("mpapa", **base)),
        ]
        assert sorted(b.recursive for _, b in _panel_batches([cfg for _, cfg in panel])) == [False, True]
        exp = ExperimentConfig(scenario=small_scenario(total=300, switch=150), panel=panel, trace_decimation=1)
        forks = see_cpus(monkeypatch, 1)
        traces, summary = serial = outcome(exp)
        assert not forks and not summary.failures
        for label, cfg in panel:
            solo = outcome(ExperimentConfig(scenario=exp.scenario, panel=[(label, cfg)], trace_decimation=1))
            assert [t for t in traces if t[0] == label] == solo[0], label
            assert [r for r in summary.rows if r.label == label] == solo[1].rows, label
        for cpus in (2, 3, len(panel) + 1):
            forks = see_cpus(monkeypatch, cpus)
            assert outcome(exp) == serial, cpus
            assert len(forks) == min(cpus, len(panel)) - 1

    def test_a_recursive_batch_that_loses_its_unit_row_mid_run_keeps_the_bits(self, monkeypatch):
        """Streamed directly, a recursive batch whose unit-gain row diverges at sample 100
        carries the recursion state of the rows it keeps on to the batch without it.  The
        unit-gain row's misalignment comes from its recursion, whose values alone reach
        ``filters._decibels``, the others' from their weights, one
        ``filters._misalignment_rows`` call on each side of it."""
        sc = small_scenario(total=300, switch=150)
        x, d = bench.synthesize_scenario(sc)
        configs = [FilterConfig("papa", 32, _RECURSE_FROM, step_size=0.3), unit_entry(32, _RECURSE_FROM),
                   FilterConfig("mpapa", 32, _RECURSE_FROM, step_size=0.3)]
        [(entries, batch)] = _panel_batches(configs)
        assert batch.recursive and batch.units == (entries.index(1), entries.index(1) + 1)
        units, rows, calls, row_calls = filters._decibels, filters._misalignment_rows, [], []

        def unit_row_diverges_at_100(ratios):
            values = units(ratios)
            calls.append(len(values))
            if len(calls) == 101:  # sample 100, while every row is in the batch
                values[0] = float("inf")
            return values

        def counted(truth, power, weights, out):
            row_calls.append(len(weights))
            return rows(truth, power, weights, out)

        failures = {}
        monkeypatch.setattr(filters, "_decibels", unit_row_diverges_at_100)
        monkeypatch.setattr(filters, "_misalignment_rows", counted)
        mis = bench._stream_batch(batch, entries, x, d, sc.segments(), failures)
        monkeypatch.undo()
        assert failures == {1: "diverged at sample 100: misalignment is inf dB"}
        assert calls == [1] * 101 and row_calls == [1, 1] * 101 + [2] * 199
        for b, k in enumerate(entries):
            [(_, alone)] = _panel_batches([configs[k]])
            solo = bench._stream_batch(alone, [k], x, d, sc.segments(), {})
            span = slice(100) if k == 1 else slice(None)  # the unit row's later samples are unset
            assert mis[b, span].tobytes() == solo[0, span].tobytes(), k

    def test_a_recursive_batch_that_loses_a_row_mid_run_keeps_its_summed_row_bits(self, monkeypatch):
        """Streamed directly, a recursive batch whose in-place row diverges at sample 100
        carries the lag ring and its head of the summed bs-papa row (P = M = 16) on to the
        batch without it."""
        sc = small_scenario(total=300, switch=150)
        x, d = bench.synthesize_scenario(sc)
        configs = [FilterConfig("bs-papa", 32, _RECURSE_FROM, group_size=16, step_size=0.3),
                   FilterConfig("papa", 32, _RECURSE_FROM, step_size=0.3), unit_entry(32, _RECURSE_FROM)]
        [(entries, batch)] = _panel_batches(configs)
        assert batch.recursive and entries == [1, 0, 2] and len(batch._summed) == 1
        assert batch.units == (2, 3)  # the unit-gain row's misalignment is not read from its weights
        rows, calls = filters._misalignment_rows, []

        def papa_row_diverges_at_100(truth, power, weights, out):
            values = rows(truth, power, weights, out)
            calls.append(len(values))
            if len(calls) == 101:  # sample 100, while every row is in the batch
                values[0] = float("inf")
            return values

        failures = {}
        monkeypatch.setattr(filters, "_misalignment_rows", papa_row_diverges_at_100)
        mis = bench._stream_batch(batch, entries, x, d, sc.segments(), failures)
        monkeypatch.setattr(filters, "_misalignment_rows", rows)
        assert failures == {1: "diverged at sample 100: misalignment is inf dB"}
        assert calls == [2] * 101 + [1] * 199
        for b, k in enumerate(entries):
            [(_, alone)] = _panel_batches([configs[k]])
            solo = bench._stream_batch(alone, [k], x, d, sc.segments(), {})
            span = slice(100) if k == 1 else slice(None)  # the papa row's later samples are unset
            assert mis[b, span].tobytes() == solo[0, span].tobytes(), k

    def test_a_recursive_batch_that_loses_a_row_mid_run_keeps_its_memory_row_bits(self, monkeypatch):
        """Streamed directly, a recursive batch whose in-place row diverges at sample 100
        carries the lag ring that its summed bs-papa row and its bs-mpapa row share (P = 16),
        and the memory row's ring of block gains, on to the batch without it."""
        sc = small_scenario(total=300, switch=150)
        x, d = bench.synthesize_scenario(sc)
        configs = [FilterConfig("bs-mpapa", 32, _RECURSE_FROM, group_size=16, step_size=0.3),
                   FilterConfig("papa", 32, _RECURSE_FROM, step_size=0.3),
                   FilterConfig("bs-papa", 32, _RECURSE_FROM, group_size=16, step_size=0.3)]
        [(entries, batch)] = _panel_batches(configs)
        assert batch.recursive and entries == [1, 2, 0] and batch._lag_groups == [16]
        assert len(batch._summed) == len(batch._memory_sums) == 1
        rows, calls = filters._misalignment_rows, []

        def papa_row_diverges_at_100(truth, power, weights, out):
            values = rows(truth, power, weights, out)
            calls.append(len(values))
            if len(calls) == 101:  # sample 100, while every row is in the batch
                values[0] = float("inf")
            return values

        failures = {}
        monkeypatch.setattr(filters, "_misalignment_rows", papa_row_diverges_at_100)
        mis = bench._stream_batch(batch, entries, x, d, sc.segments(), failures)
        monkeypatch.setattr(filters, "_misalignment_rows", rows)
        assert failures == {1: "diverged at sample 100: misalignment is inf dB"}
        assert calls == [3] * 101 + [2] * 199
        for b, k in enumerate(entries):
            [(_, alone)] = _panel_batches([configs[k]])
            solo = bench._stream_batch(alone, [k], x, d, sc.segments(), {})
            span = slice(100) if k == 1 else slice(None)  # the papa row's later samples are unset
            assert mis[b, span].tobytes() == solo[0, span].tobytes(), k

    @pytest.mark.parametrize("fault", [nan_at_100, silent_after_120])
    def test_a_failing_unit_row_fails_as_in_its_one_entry_run(self, monkeypatch, fault):
        sc = fault(monkeypatch)
        panel = [("doomed", unit_entry(32, 1, regularization=0.0)),  # singular once silent for L samples
                 ("BS-PAPA(P=4)", FilterConfig("bs-papa", 32, 1, group_size=4, step_size=0.3)),
                 ("APA", unit_entry(32, _RECURSE_FROM)),
                 ("BS-PAPA(P=32)", unit_entry(32, _RECURSE_FROM, "bs-papa"))]
        exp = ExperimentConfig(scenario=sc, panel=panel, trace_decimation=1)
        see_cpus(monkeypatch, 1)
        traces, summary = serial = outcome(exp)
        if fault is nan_at_100:
            assert not traces and sorted(summary.failures) == sorted(label for label, _ in panel)
            assert all(m.startswith("diverged at sample 100:") for m in summary.failures.values())
        else:
            assert list(summary.failures) == ["doomed"]
            assert summary.failures["doomed"].startswith("aborted at sample 1")
        for label, cfg in panel:
            solo = outcome(ExperimentConfig(scenario=sc, panel=[(label, cfg)], trace_decimation=1))
            assert [t for t in traces if t[0] == label] == solo[0], label
            assert summary.failures.get(label) == solo[1].failures.get(label), label
        forks = see_cpus(monkeypatch, 3)
        assert outcome(exp) == serial and len(forks) == 2

    @staticmethod
    def streamed_and_exact(noise):
        """An apa row (L=64, M=16, mu=0.5) streamed over 20 000 samples of AR(1) input,
        pole 0.8, with ``noise`` on the echo; and the misalignment of the weights a twin
        batch forms after each step, ``misalignment_db(h, formed w)``."""
        L, M, total = 64, _RECURSE_FROM, 20000
        cfg = FilterConfig("apa", L, M, step_size=0.5)
        response = make_block_sparse_ir(L, [(5, 12)], seed=3)
        x = gen_excitation(total, 17, "ar1", 0.8)
        d = np.convolve(x, response.taps)[:total] + noise * np.random.default_rng(19).standard_normal(total)
        [(_, batch)] = _panel_batches([cfg])
        failures = {}
        streamed = bench._stream_batch(batch, [0], x, d, [(0, total, response)], failures)[0]
        assert not failures and batch.units == (0, 1)
        [(_, twin)] = _panel_batches([cfg])
        history, desired, exact = RegressorHistory(L, M), np.zeros(M), np.empty(total)
        for n in range(total):
            history.push(x[n])
            desired[1:] = desired[:-1]
            desired[0] = d[n]
            twin.step(history, desired)
            exact[n] = misalignment_db(response.taps, twin.formed(history)[0])
        return streamed, exact

    def test_a_unit_row_streams_its_misalignment_within_its_bound(self):
        """With noise 1e-3 the row settles near -68 dB; every streamed value lies within
        1e-9 dB of the misalignment of the weights it forms (6.1e-11 was measured)."""
        streamed, exact = self.streamed_and_exact(1e-3)
        assert exact[-1] < -60.0
        assert float(np.max(np.abs(streamed - exact))) <= 1e-9

    def test_a_noiseless_unit_row_reads_the_floor_exactly(self):
        """Noiseless, the row reaches the -300 dB floor.  Above ``_EXACT_BELOW`` of
        ||h||^2 (-100 dB) each streamed value lies within 1e-9 dB of the formed weights'
        misalignment (6.5e-10 was measured); below it each is that value, formed every
        sample, so the stream never reads NaN or the log of a negative ratio."""
        streamed, exact = self.streamed_and_exact(0.0)
        assert np.all(np.isfinite(streamed)) and streamed[-1] == -300.0
        deep = exact <= 10.0 * np.log10(filters._EXACT_BELOW)
        assert deep.sum() > 10000 and np.array_equal(streamed[deep], exact[deep])
        assert float(np.max(np.abs(streamed[~deep] - exact[~deep]))) <= 1e-9

    def test_a_delta_zero_unit_row_on_silent_input_fails_at_sample_0(self):
        """A recursive apa row with delta=0 has a zero system on silent input: it fails at
        sample 0, with the solver's message and pivot."""
        [(_, batch)] = _panel_batches([unit_entry(32, _RECURSE_FROM, regularization=0.0)])
        assert batch.recursive and batch.units == (0, 1)
        response, failures = make_block_sparse_ir(32, [(9, 24)], seed=3), {}
        bench._stream_batch(batch, [0], np.zeros(50), np.zeros(50), [(0, 50, response)], failures)
        assert failures == {0: "aborted at sample 0: projection system singular to working precision "
                               "(pivot 0.000e+00)"}


@st.composite
def panel_entries(draw):
    """One FilterConfig of L=32: any variant, P and M=1..6, or M=16, 17 or 20, where the
    batch takes the recursions.  With delta=0 an M>1 system is singular at sample 0, and
    an M=1 one once the input has been silent for L samples."""
    variant = draw(st.sampled_from(VARIANTS))
    order = 1 if variant.endswith("pnlms") else draw(st.integers(1, 6) | st.sampled_from([16, 17, 20]))
    group = draw(st.sampled_from([1, 2, 4, 8, 16, 32])) if variant.startswith("bs-") else None
    return FilterConfig(
        variant, 32, order, group_size=group,
        step_size=draw(st.sampled_from([0.1, 0.3, 0.6])),
        regularization=draw(st.sampled_from([0.0, 0.01, 0.03, 0.05])),
    )


class TestBatchInvariance:
    """Whatever batch an entry sits in, and however many shards share the panel, its
    results are those of its one-entry run, bit for bit: no row's arithmetic may depend
    on the rows beside it.  About 5 s for 60 panels on two CPUs."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        configs=st.lists(panel_entries(), min_size=1, max_size=6),
        silent=st.booleans(),
        cpus=st.integers(1, 3),
    )
    def test_every_entry_equals_its_one_entry_run(self, configs, silent, cpus):
        sc = small_scenario(total=300, switch=150)
        x, d = synthesize_scenario(sc)
        if silent:  # a delta=0 entry of M=1 then fails mid-run
            x = x.copy()
            x[120:] = 0.0
        panel = [(f"{k} {cfg.variant}", cfg) for k, cfg in enumerate(configs)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("bspapa.bench.synthesize_scenario", lambda scenario: (x, d))
            see_cpus(patch, cpus)
            traces, summary = outcome(ExperimentConfig(scenario=sc, panel=panel, trace_decimation=1))
            for label, cfg in panel:
                solo, solo_summary = outcome(ExperimentConfig(scenario=sc, panel=[(label, cfg)], trace_decimation=1))
                assert [t for t in traces if t[0] == label] == solo, label
                assert summary.failures.get(label) == solo_summary.failures.get(label), label
                assert [r for r in summary.rows if r.label == label] == solo_summary.rows, label
        assert len(traces) + len(summary.failures) == len(panel)


class TestCsvOutput:
    def test_structure_and_roundtrip(self, tmp_path):
        from bspapa import MisalignmentTrace

        trace = MisalignmentTrace(
            "demo", np.array([0, 10, 20]), np.array([0.0, -3.141592653589793, -21.5])
        )
        summary = RunSummary(rows=[SegmentSummary("demo", 0, 17, -21.456789, 96)])
        path, sidecar = write_traces_csv([trace], summary, tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "sample,label,misalignment_db"
        assert len(lines) == 4
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for row, expected in zip(rows, trace.values):
            assert float(row["misalignment_db"]) == pytest.approx(expected, rel=2e-6)
        assert sidecar.name == "out.csv.summary.csv"
        with open(sidecar) as fh:
            srows = list(csv.DictReader(fh))
        assert srows[0]["time_to_minus15db"] == "17"
        assert float(srows[0]["steady_state_db"]) == pytest.approx(-21.456789, rel=2e-6)
        assert srows[0]["mults_per_step"] == "96"

    def test_never_reached_threshold_is_empty_field(self, tmp_path):
        from bspapa import MisalignmentTrace

        trace = MisalignmentTrace("x", np.array([0]), np.array([-1.0]))
        summary = RunSummary(rows=[SegmentSummary("x", 0, None, -1.0, 8)])
        _, sidecar = write_traces_csv([trace], summary, tmp_path / "o.csv")
        with open(sidecar) as fh:
            srows = list(csv.DictReader(fh))
        assert srows[0]["time_to_minus15db"] == ""

    def test_decimation_row_count(self, tmp_path):
        exp = ExperimentConfig(
            scenario=small_scenario(total=3000, switch=None),
            panel=small_panel(),
            trace_decimation=100,
        )
        traces, summary = run_experiment(exp)
        path, _ = write_traces_csv(traces, summary, tmp_path / "dec.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 2 * 30  # header + 30 rows per label

    def test_empty_traces_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_traces_csv([], RunSummary(rows=[]), tmp_path / "x.csv")


class TestExperimentConfigValidation:
    def test_duplicate_labels_rejected(self):
        cfg = FilterConfig("apa", 32, 4)
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario=small_scenario(), panel=[("a", cfg), ("a", cfg)])

    def test_length_mismatch_rejected(self):
        cfg = FilterConfig("apa", 64, 4)
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig(scenario=small_scenario(), panel=[("a", cfg)])
        assert "filter_length" in str(excinfo.value)

    def test_empty_panel_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario=small_scenario(), panel=[])

    @pytest.mark.parametrize("entry", ["notacfg", None, {"variant": "apa"}])
    def test_entry_that_is_no_filter_config_is_named(self, entry):
        panel = [("ok", FilterConfig("apa", 32, 4)), ("a", entry)]
        with pytest.raises(ConfigError, match=r"^panel\['a'\]: expected a FilterConfig, got "):
            ExperimentConfig(scenario=small_scenario(), panel=panel)

    @pytest.mark.parametrize("value", [2.5, 10.0, True, "10", None])
    def test_non_integer_trace_decimation_rejected(self, value):
        # before the run, not as an IndexError once the whole panel has run
        with pytest.raises(ConfigError, match=r"^trace_decimation: must be an integer, got "):
            ExperimentConfig(scenario=small_scenario(), panel=small_panel(), trace_decimation=value)

    def test_numpy_integer_trace_decimation_accepted(self):
        exp = ExperimentConfig(scenario=small_scenario(total=50), panel=small_panel(),
                               trace_decimation=np.int64(7))
        traces, _ = run_experiment(exp)
        assert traces[0].sample_indices.tolist() == list(range(0, 50, 7))


def readme_config():
    """The full example of the README's "Experiment config format" section."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("### Experiment config format", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


def object_keys(node, steps=()):
    """``(steps, key)`` for every key of every object in ``node``, where
    ``steps`` are the keys and indices leading to the key's object."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield steps, key
            yield from object_keys(value, (*steps, key))
    elif isinstance(node, list):
        for j, item in enumerate(node):
            yield from object_keys(item, (*steps, j))


def parent_of(raw, steps):
    for step in steps:
        raw = raw[step]
    return raw


def field_path(steps):
    """``steps`` written as a config path, ``scenario.schedule[0]``; ``""`` for none."""
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps).lstrip(".")


def json_type(value):
    return {bool: "boolean", int: "number", float: "number", str: "string",
            list: "array", dict: "object", type(None): "null"}[type(value)]


README_KEYS = list(object_keys(readme_config()))


class TestConfigParsing:
    def raw(self):
        return {
            "scenario": {
                "filter_length": 32,
                "total_samples": 400,
                "seed": 3,
                "snr_db": 30.0,
                "excitation": "ar1",
                "pole": 0.8,
                "schedule": [
                    {"switch_sample": 0, "clusters": [[9, 12]], "seed": 11},
                    {"switch_sample": 200, "clusters": [[9, 12], [25, 28]], "seed": 12},
                ],
            },
            "panel": [
                {
                    "label": "BS-PAPA(P=4)",
                    "variant": "bs-papa",
                    "group_size": 4,
                    "projection_order": 4,
                    "step_size": 0.2,
                    "regularization": 0.01,
                    "rho": 0.01,
                    "q": 0.01,
                }
            ],
            "trace_decimation": 4,
            "output_path": "out.csv",
        }

    def test_parses(self):
        exp = experiment_from_dict(self.raw())
        assert exp.scenario.total_samples == 400
        assert exp.panel[0][0] == "BS-PAPA(P=4)"
        assert exp.panel[0][1].group_size == 4
        assert exp.trace_decimation == 4
        assert exp.output_path == "out.csv"

    @pytest.mark.parametrize("raw", [[], "x", None])
    def test_top_level_that_is_no_object_is_named_config(self, raw):
        with pytest.raises(ConfigError, match=r"^config: expected an object$"):
            experiment_from_dict(raw)

    def test_missing_field_names_path(self):
        raw = self.raw()
        del raw["scenario"]["total_samples"]
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        assert "scenario.total_samples" in str(excinfo.value)

    def test_bad_variant_names_panel_entry(self):
        raw = self.raw()
        raw["panel"][0]["variant"] = "rls"
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        assert "panel[0]" in str(excinfo.value)

    def test_bad_cluster_names_schedule_entry(self):
        raw = self.raw()
        raw["scenario"]["schedule"][1]["clusters"] = [[0, 5]]
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        assert "scenario.schedule[1].clusters" in str(excinfo.value)

    @pytest.mark.parametrize(
        "where,field,value",
        [
            ("panel", "regularization", float("nan")),
            ("panel", "regularization", float("inf")),
            ("panel", "rho", float("inf")),
            ("panel", "q", float("inf")),
            ("scenario", "snr_db", float("nan")),
            ("scenario", "snr_db", float("-inf")),
            ("scenario", "snr_db", float("inf")),
        ],
    )
    def test_non_finite_value_names_field(self, where, field, value):
        raw = self.raw()
        target = raw["panel"][0] if where == "panel" else raw["scenario"]
        target[field] = value
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        message = str(excinfo.value)
        assert message.startswith("panel[0]:" if where == "panel" else "scenario:")
        assert field in message

    @pytest.mark.parametrize(
        "where,field", [("panel", "regularization"), ("panel", "rho"), ("scenario", "snr_db"), ("scenario", "pole")]
    )
    def test_an_integer_past_the_float_range_names_field(self, where, field):
        raw = self.raw()
        (raw["panel"][0] if where == "panel" else raw["scenario"])[field] = 10**400
        with pytest.raises(ConfigError, match=rf"^{where}(\[0\])?: {field} lies beyond the float range"):
            experiment_from_dict(raw)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("group_size", 4.0),
            ("group_size", True),
            ("group_size", "4"),
            ("projection_order", 2.7),
            ("projection_order", 4.0),
            ("projection_order", True),
            ("step_size", None),
            ("step_size", True),
            ("step_size", "0.5"),
            ("regularization", None),
            ("rho", None),
            ("rho", "0.01"),
            ("q", False),
        ],
    )
    def test_malformed_integer_names_field(self, field, value):
        raw = self.raw()
        raw["panel"][0][field] = value
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        expected = "an integer" if field in ("group_size", "projection_order") else "a number"
        assert str(excinfo.value).startswith(f"panel[0].{field}: expected {expected}, got {value!r}")

    @pytest.mark.parametrize(
        "field,value,expected",
        [
            ("snr_db", "30", "a number"),
            ("snr_db", True, "a number"),
            ("pole", "0.8", "a number"),
            ("pole", False, "a number"),
            ("excitation", 1, "a string"),
        ],
    )
    def test_malformed_scenario_value_names_field(self, field, value, expected):
        raw = self.raw()
        raw["scenario"][field] = value
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        assert str(excinfo.value).startswith(f"scenario.{field}: expected {expected}")

    @pytest.mark.parametrize(
        "clusters,where,expected",
        [
            (None, "clusters", "a list of [start, end] pairs"),
            (5, "clusters", "a list of [start, end] pairs"),
            ([[9, 12], 5], "clusters[1]", "a [start, end] pair"),
            ([[1, 8, 9]], "clusters[0]", "a [start, end] pair"),
            ([[9]], "clusters[0]", "a [start, end] pair"),
            ([[1.5, 8]], "clusters[0]", "an integer"),
            ([[9, 12.0]], "clusters[0]", "an integer"),
            ([[True, 8]], "clusters[0]", "an integer"),
            ([["1", 8]], "clusters[0]", "an integer"),
        ],
    )
    def test_malformed_clusters_name_the_pair(self, clusters, where, expected):
        raw = self.raw()
        raw["scenario"]["schedule"][1]["clusters"] = clusters
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        assert str(excinfo.value).startswith(f"scenario.schedule[1].{where}: expected {expected}")

    def test_integer_panel_numbers_read_as_floats(self):
        raw = self.raw()
        raw["panel"][0].update(step_size=1, regularization=0)
        cfg = experiment_from_dict(raw).panel[0][1]
        assert type(cfg.step_size) is float and cfg.step_size == 1.0
        assert type(cfg.regularization) is float and cfg.regularization == 0.0

    @pytest.mark.parametrize("value", [5, ["out.csv"], True])
    def test_non_string_output_path_rejected(self, value):
        raw = self.raw()
        raw["output_path"] = value
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        assert str(excinfo.value) == f"output_path: expected a string or null, got {value!r}"

    def test_null_output_path_accepted(self):
        raw = self.raw()
        raw["output_path"] = None
        assert experiment_from_dict(raw).output_path is None

    def test_null_snr_db_disables_noise(self):
        raw = self.raw()
        raw["scenario"]["snr_db"] = None
        assert experiment_from_dict(raw).scenario.snr_db is None

    @pytest.mark.parametrize("field", ["label", "variant"])
    @pytest.mark.parametrize("value", [None, ["x"], True, 5])
    def test_non_string_label_or_variant_rejected(self, field, value):
        raw = self.raw()
        raw["panel"][0][field] = value
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        assert str(excinfo.value) == f"panel[0].{field}: expected a string, got {value!r}"

    @pytest.mark.parametrize(
        "steps,key", README_KEYS, ids=[field_path((*steps, key)) for steps, key in README_KEYS]
    )
    def test_every_readme_key_is_checked(self, steps, key):
        # A value of another JSON type, and the key with one letter dropped,
        # must each be rejected with the field's path.
        experiment_from_dict(readme_config())  # the example itself is valid
        path, where = field_path((*steps, key)), field_path(steps) or "config"
        for value in ("x", 5, True, [], {}):
            raw = readme_config()
            if json_type(value) == json_type(parent_of(raw, steps)[key]):
                continue
            parent_of(raw, steps)[key] = value
            with pytest.raises(ConfigError) as excinfo:
                experiment_from_dict(raw)
            assert str(excinfo.value).startswith(f"{path}:"), (value, str(excinfo.value))
        for i in range(len(key)):
            misspelt, raw = key[:i] + key[i + 1 :], readme_config()
            parent = parent_of(raw, steps)
            parent[misspelt] = parent.pop(key)
            with pytest.raises(ConfigError) as excinfo:
                experiment_from_dict(raw)
            assert str(excinfo.value) in (
                f"{where}.{key}: missing required field",
                f"{where}: unknown field {misspelt!r}",
            ), (misspelt, str(excinfo.value))

    def test_regressor_mode_key_is_ignored(self):
        raw = self.raw()
        raw["panel"][0]["regressor_mode"] = "direct"
        assert experiment_from_dict(raw).panel == experiment_from_dict(self.raw()).panel

    def test_with_seed_replaces_only_seed(self):
        exp = experiment_from_dict(self.raw())
        reseeded = with_seed(exp, 99)
        assert reseeded.scenario.seed == 99
        assert reseeded.scenario.total_samples == exp.scenario.total_samples
        assert reseeded.panel == exp.panel

    def test_negative_response_seed_names_schedule_seed(self):
        raw = self.raw()
        raw["scenario"]["schedule"][1]["seed"] = -1
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        assert str(excinfo.value) == "scenario.schedule[1].seed: expected a non-negative integer, got -1"

    @pytest.mark.parametrize("length", [0, -4])
    def test_non_positive_filter_length_names_filter_length(self, length):
        raw = self.raw()
        raw["scenario"]["filter_length"] = length
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        assert str(excinfo.value) == f"scenario.filter_length: expected a positive integer, got {length}"

    def test_negative_scenario_seed_names_seed(self):
        raw = self.raw()
        raw["scenario"]["seed"] = -1
        with pytest.raises(ConfigError) as excinfo:
            experiment_from_dict(raw)
        assert str(excinfo.value) == "scenario: seed must be non-negative, got -1"

    def test_minimal_description_takes_the_constructor_defaults(self):
        raw = {
            "scenario": {
                "filter_length": 32,
                "total_samples": 400,
                "schedule": [
                    {"switch_sample": 0, "clusters": [[9, 12]]},
                    {"switch_sample": 200, "clusters": [[25, 28]]},
                ],
            },
            "panel": [{"label": "a", "variant": "bs-papa", "group_size": 4}],
        }
        exp = experiment_from_dict(raw)
        # response j defaults to seed 1001 + j
        responses = (
            (0, make_block_sparse_ir(32, [(9, 12)], seed=1001)),
            (200, make_block_sparse_ir(32, [(25, 28)], seed=1002)),
        )
        built = ExperimentConfig(
            scenario=EchoScenario(schedule=responses, total_samples=400),
            panel=[("a", FilterConfig("bs-papa", 32, group_size=4))],
        )
        assert exp.panel == built.panel
        assert (exp.trace_decimation, exp.output_path) == (built.trace_decimation, built.output_path)
        for name in ("excitation", "pole", "snr_db", "seed", "total_samples"):
            assert getattr(exp.scenario, name) == getattr(built.scenario, name), name
        for (switch, response), (built_switch, built_response) in zip(
            exp.scenario.schedule, built.scenario.schedule, strict=True
        ):
            assert switch == built_switch
            assert response.cluster_spec == built_response.cluster_spec
            np.testing.assert_array_equal(response.taps, built_response.taps)


class TestPresets:
    def test_fig2_panel(self):
        exp = preset_config("fig2")
        labels = [label for label, _ in exp.panel]
        assert labels == ["P=1", "P=4", "P=16", "P=32", "P=64", "P=1024"]
        for _, cfg in exp.panel:
            assert cfg.variant == "bs-papa"
            assert cfg.projection_order == 8
            assert cfg.step_size == 0.01
            assert cfg.regularization == 0.01
            assert cfg.guards.rho == 0.01 and cfg.guards.q == 0.01

    def test_fig3_panel(self):
        exp = preset_config("fig3")
        labels = [label for label, _ in exp.panel]
        assert labels == ["APA", "PAPA", "MPAPA", "BS-PAPA(P=32)", "BS-MPAPA(P=32)"]
        variants = [cfg.variant for _, cfg in exp.panel]
        assert variants == ["apa", "papa", "mpapa", "bs-papa", "bs-mpapa"]
        assert exp.panel[3][1].group_size == 32
        assert exp.panel[4][1].group_size == 32

    def test_scenario_parameters(self):
        sc = preset_config("fig3").scenario
        assert sc.filter_length == 1024
        assert sc.total_samples == 60000
        assert sc.excitation == "ar1" and sc.pole == 0.8
        assert sc.snr_db == 30.0
        assert [s for s, _ in sc.schedule] == [0, 30000]
        assert np.count_nonzero(sc.schedule[0][1].taps) == 32
        assert np.count_nonzero(sc.schedule[1][1].taps) == 64

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("fig9")

    def test_bad_argument_names_scenario(self):
        with pytest.raises(ConfigError) as excinfo:
            preset_config("fig2", total_samples=0)
        assert str(excinfo.value).startswith("scenario:")

    @pytest.mark.parametrize("switch", [0, -5, 2.5, True])
    def test_bad_switch_sample_is_named(self, switch):
        with pytest.raises(ConfigError) as excinfo:
            preset_config("fig2", switch_sample=switch)
        assert str(excinfo.value) == f"switch_sample: expected an integer >= 1, got {switch!r}"

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_numpy_integer_arguments_read_as_ints(self, kind):
        plain = preset_config("fig2", seed=5, total_samples=1800, switch_sample=900, trace_decimation=3)
        numpy = preset_config("fig2", seed=kind(5), total_samples=kind(1800), switch_sample=kind(900),
                              trace_decimation=kind(3))
        for exp in (plain, numpy):
            sc = exp.scenario
            assert (sc.seed, sc.total_samples, exp.trace_decimation) == (5, 1800, 3)
            assert type(sc.seed) is int and type(sc.total_samples) is int
            assert [start for start, _ in sc.schedule] == [0, 900]
        assert numpy.panel == plain.panel

    @pytest.mark.parametrize("value", [np.int64(30), np.float64(30.0), np.float32(30.0)])
    def test_numpy_real_snr_db_reads_as_the_number(self, value):
        x, d = synthesize_scenario(preset_config("fig2", total_samples=2000, snr_db=30).scenario)
        same = synthesize_scenario(preset_config("fig2", total_samples=2000, snr_db=value).scenario)
        assert x.tobytes() == same[0].tobytes() and d.tobytes() == same[1].tobytes()

    def test_numpy_bool_snr_db_is_named(self):
        with pytest.raises(ConfigError, match=r"^scenario\.snr_db: expected a number, got "):
            preset_config("fig2", snr_db=np.bool_(True))

    @pytest.mark.parametrize("field", ["seed", "total_samples", "trace_decimation"])
    @pytest.mark.parametrize("value", [True, np.bool_(True), 5.0, "5"])
    def test_non_integer_arguments_are_named(self, field, value):
        with pytest.raises(ConfigError, match=rf"^(scenario\.)?{field}: expected an integer, got "):
            preset_config("fig2", **{field: value})

    @pytest.mark.parametrize("switch,starts", [(np.int64(900), [0, 900]), (1800, [0]), (5000, [0])])
    def test_switch_sample_at_or_past_the_end_leaves_one_segment(self, switch, starts):
        scenario = preset_config("fig2", total_samples=1800, switch_sample=switch).scenario
        assert [start for start, _ in scenario.schedule] == starts


# sha256 of the files `bspapa-bench preset <name> --total-samples 2000` writes
PRESET_DIGESTS = {
    "fig2": {
        "fig2.csv": "2d0dc917369d7a4a1be515f829affa9a3938dfc0bbca5678c435195d285668fc",
        "fig2.csv.summary.csv": "f30ba39131410a5baf3e942002181503e3693be5c5e4b04c962261b74c3a70a1",
    },
    "fig3": {
        "fig3.csv": "83844b9db4a583fbd6a3413e13c230c2288807aa17b21e95dcabff700a86c7e4",
        "fig3.csv.summary.csv": "65adda71a91ec4c834fbaf5d043d031f2fc16ddbac74bebb5ffb3ce2207e5c72",
    },
}


class TestCli:
    def write_config(self, tmp_path):
        raw = TestConfigParsing().raw()
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(raw))
        return path

    def test_run_writes_deterministic_files(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli_main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.csv.summary.csv").read_bytes() == (
            tmp_path / "b.csv.summary.csv"
        ).read_bytes()

    def test_run_seed_override_changes_output(self, tmp_path):
        config = self.write_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli_main(["run", "--config", str(config), "--out", str(out_b), "--seed", "99"]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": {}}))
        assert cli_main(["run", "--config", str(bad)]) == 1
        assert "scenario" in capsys.readouterr().err

    def test_run_rejects_a_json_array(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([TestConfigParsing().raw()]))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: config: expected an object\n"

    def test_run_rejects_non_finite_json_literal(self, tmp_path, capsys):
        raw = TestConfigParsing().raw()
        raw["scenario"]["snr_db"] = float("-inf")
        path = tmp_path / "neg_inf.json"
        path.write_text(json.dumps(raw))  # writes the -Infinity literal json.load accepts
        assert "-Infinity" in path.read_text()
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "snr_db" in capsys.readouterr().err

    @pytest.mark.parametrize("clusters", [None, 5])
    def test_run_rejects_non_list_clusters(self, tmp_path, capsys, clusters):
        raw = TestConfigParsing().raw()
        raw["scenario"]["schedule"][0]["clusters"] = clusters
        path = tmp_path / "clusters.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "scenario.schedule[0].clusters: expected a list" in capsys.readouterr().err

    def test_run_rejects_non_string_output_path(self, tmp_path, capsys):
        raw = TestConfigParsing().raw()
        raw["output_path"] = 5
        path = tmp_path / "int_out.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "output_path: expected a string or null, got 5" in capsys.readouterr().err

    def test_count_mults(self, capsys):
        assert cli_main(["count-mults", "--L", "1024", "--M", "8", "--P", "32"]) == 0
        out = capsys.readouterr().out
        assert "8192" in out and "1248" in out

    def test_count_mults_rejects_indivisible(self, capsys):
        assert cli_main(["count-mults", "--L", "10", "--M", "8", "--P", "3"]) == 1

    def test_preset_small_run(self, tmp_path):
        out = tmp_path / "mini.csv"
        assert (
            cli_main(
                [
                    "preset",
                    "fig3",
                    "--out",
                    str(out),
                    "--total-samples",
                    "400",
                    "--decimation",
                    "50",
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "sample,label,misalignment_db"
        assert len(lines) == 1 + 5 * 8  # 5 labels, 400/50 rows each

    @pytest.mark.parametrize("name", PRESET_DIGESTS)
    def test_preset_csv_bytes_are_pinned(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert cli_main(["preset", name, "--out", str(out), "--total-samples", "2000"]) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
        assert written == PRESET_DIGESTS[name]

    def test_preset_forwards_only_given_flags(self, tmp_path):
        out = tmp_path / "cli.csv"
        assert cli_main(["preset", "fig3", "--out", str(out), "--total-samples", "400"]) == 0
        traces, summary = run_experiment(preset_config("fig3", total_samples=400))
        trace_path, summary_path = write_traces_csv(traces, summary, tmp_path / "api.csv")
        assert out.read_bytes() == trace_path.read_bytes()
        assert (tmp_path / "cli.csv.summary.csv").read_bytes() == summary_path.read_bytes()

    @pytest.mark.parametrize("snr_db", ["4000", "-4000"])
    def test_extreme_snr_db_is_a_named_error(self, tmp_path, capsys, snr_db):
        args = ["--total-samples", "400", "--snr-db", snr_db, "--out", str(tmp_path / "o.csv")]
        assert cli_main(["preset", "fig3", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "snr_db" in err and "Traceback" not in err
        raw = TestConfigParsing().raw()
        raw["scenario"]["snr_db"] = float(snr_db)
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "snr_db" in err and "Traceback" not in err

    def test_silent_segment_with_snr_is_a_named_error(self, tmp_path, capsys, monkeypatch):
        def no_steps(*args):
            raise AssertionError("a filter stepped")

        monkeypatch.setattr(bench, "_panel_batches", no_steps)
        # fig2's first cluster starts at tap 257: 200 samples hold no echo
        assert cli_main(["preset", "fig2", "--total-samples", "200", "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: scenario.schedule[0]: the clean echo over samples [0, 200) has zero power "
            "(the response has first nonzero tap 257, counted from 1), so snr_db=30.0 cannot "
            "scale noise to it; lengthen the segment or set snr_db to null\n"
        )
        raw = TestConfigParsing().raw()
        raw["scenario"]["filter_length"] = 64
        raw["scenario"]["schedule"] = [
            {"switch_sample": 0, "clusters": [[50, 60]]},
            {"switch_sample": 40, "clusters": [[9, 12]]},
        ]
        with pytest.raises(ConfigError) as excinfo:
            run_experiment(experiment_from_dict(raw))
        assert str(excinfo.value).startswith(
            "scenario.schedule[0]: the clean echo over samples [0, 40) has zero power "
            "(the response has first nonzero tap 50, counted from 1), so snr_db=30.0 "
        )
        raw["scenario"]["snr_db"] = None  # no noise to scale: the silent segment is legal
        monkeypatch.undo()
        _, summary = run_experiment(experiment_from_dict(raw))
        assert not summary.failures and summary.row("BS-PAPA(P=4)", 1).time_to_threshold is not None

    def test_negative_preset_seed_is_a_named_error(self, tmp_path, capsys):
        args = ["--total-samples", "400", "--seed", "-1", "--out", str(tmp_path / "o.csv")]
        assert cli_main(["preset", "fig3", *args]) == 1
        assert capsys.readouterr().err == "error: scenario: seed must be non-negative, got -1\n"

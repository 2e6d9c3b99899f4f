"""Experiment harness: scenario synthesis, panel runs, traces and CSV output.

An experiment streams one synthesized echo scenario through a panel of
independently configured adaptive filters, records the per-sample
normalized misalignment of each, and reduces every scenario segment to a
small summary (time to reach -15 dB, steady-state level, multiplications
per step).  Traces and summaries are written as plain CSV; plotting is
left to whatever consumes the files.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .filters import FilterConfig, RegressorHistory, _panel_batches
from .gains import StallGuards, _is_integer
from .signals import (
    EchoScenario,
    gen_excitation,
    make_block_sparse_ir,
    scale_noise_for_snr,
)

__all__ = [
    "THRESHOLD_DB",
    "PRESET_NAMES",
    "ConfigError",
    "ExperimentConfig",
    "MisalignmentTrace",
    "SegmentSummary",
    "RunSummary",
    "synthesize_scenario",
    "run_experiment",
    "write_traces_csv",
    "preset_config",
    "experiment_from_dict",
    "load_experiment_config",
]

THRESHOLD_DB = -15.0


class ConfigError(ValueError):
    """Experiment configuration rejected; the message names the field."""


@dataclass
class ExperimentConfig:
    """One scenario, a labeled panel of filters, and output settings."""

    scenario: EchoScenario
    panel: list
    trace_decimation: int = 10
    output_path: str | None = None

    def __post_init__(self) -> None:
        self.panel = [(str(label), cfg) for label, cfg in self.panel]
        if not self.panel:
            raise ConfigError("panel: must contain at least one entry")
        labels = [label for label, _ in self.panel]
        if len(set(labels)) != len(labels):
            raise ConfigError("panel: labels must be unique")
        for label, cfg in self.panel:
            if not isinstance(cfg, FilterConfig):
                raise ConfigError(f"panel[{label!r}]: expected a FilterConfig, got {cfg!r}")
            if cfg.filter_length != self.scenario.filter_length:
                raise ConfigError(
                    f"panel[{label!r}].filter_length: {cfg.filter_length} does not match "
                    f"the scenario length {self.scenario.filter_length}"
                )
        if not _is_integer(self.trace_decimation):
            raise ConfigError(f"trace_decimation: must be an integer, got {self.trace_decimation!r}")
        if self.trace_decimation < 1:
            raise ConfigError(f"trace_decimation: must be >= 1, got {self.trace_decimation}")


@dataclass(eq=False)
class MisalignmentTrace:
    """Decimated per-sample misalignment for one panel label."""

    label: str
    sample_indices: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class SegmentSummary:
    """Convergence summary of one label over one scenario segment."""

    label: str
    segment: int
    time_to_threshold: int | None
    steady_state_db: float
    mults_per_step: int


@dataclass
class RunSummary:
    """All segment summaries plus any aborted runs."""

    rows: list
    failures: dict = field(default_factory=dict)

    def row(self, label: str, segment: int) -> SegmentSummary:
        for r in self.rows:
            if r.label == label and r.segment == segment:
                return r
        raise KeyError(f"no summary row for {label!r} segment {segment}")


def _substream_seed(base_seed: int, index: int) -> int:
    """Stable derived seed for substream ``index`` of a scenario seed."""
    return int(np.random.SeedSequence(base_seed).generate_state(index + 1)[index])


def synthesize_scenario(scenario: EchoScenario) -> tuple[np.ndarray, np.ndarray]:
    """Excitation and observed (noisy) output for a scenario.

    The clean output of each segment is the excitation convolved with that
    segment's response over the full input history, so a response switch
    changes the output immediately while the input stream keeps flowing.
    Noise is drawn and power-calibrated per segment, keeping the realized
    SNR on target on both sides of every switch.  A segment whose clean
    output is silent has no power to scale noise to, so with ``snr_db`` set
    it is a :class:`ConfigError` that names the segment.
    """
    x = gen_excitation(
        scenario.total_samples, _substream_seed(scenario.seed, 0), scenario.excitation, scenario.pole
    )
    d = np.empty(scenario.total_samples)
    for j, (start, end, response) in enumerate(scenario.segments()):
        # the full convolution, as lfilter(taps, [1.0], x) forms it, so the bits match
        clean = np.convolve(response.taps, x)[start:end]
        if scenario.snr_db is not None:
            if not np.mean(clean * clean):  # the power scale_noise_for_snr divides by
                taps = np.flatnonzero(response.taps)
                first = f"first nonzero tap {taps[0] + 1}, counted from 1" if taps.size else "no nonzero tap"
                raise ConfigError(
                    f"scenario.schedule[{j}]: the clean echo over samples [{start}, {end}) has "
                    f"zero power (the response has {first}), so snr_db={scenario.snr_db} cannot "
                    f"scale noise to it; lengthen the segment or set snr_db to null"
                )
            clean = clean + scale_noise_for_snr(
                clean, scenario.snr_db, _substream_seed(scenario.seed, 1 + j)
            )
        d[start:end] = clean
    return x, d


def _stream_batch(batch, entries, x, d, segments, failures):
    """Stream a zeroed batch of ``filters._panel_batches``, whose row b is panel
    entry ``entries[b]``, over the scenario; return the misalignment per row and
    sample, which the batch forms after each step (``filters._Batch.misalignment``).
    An entry that fails leaves the batch with ``failures[entry]`` set."""
    order = batch.configs[0].projection_order
    history, desired = RegressorHistory(batch.weights.shape[1], order), np.zeros(order)
    mis = np.empty((len(entries), x.size))
    rows = np.arange(len(entries))  # starting row of each filter still in the batch
    target = slice(None)  # indexes ``rows`` faster while no filter has left
    for start, end, response in segments:
        batch.segment(x, d, start, end, response.taps)
        for n in range(start, end):
            history.push(x[n])
            if order > 1:
                desired[1:] = desired[:-1]
            desired[0] = d[n]
            _, singular = batch.step(history, desired)
            values = batch.misalignment(history, n)
            mis[target, n] = values
            if singular or not all(map(math.isfinite, values)):
                # NaN or inf: the weights left the finite range
                failed = {b: f"diverged at sample {n}: misalignment is {v} dB"
                          for b, v in enumerate(values) if not math.isfinite(v)}
                failed.update({b: f"aborted at sample {n}: {exc}" for b, exc in singular.items()})
                failures.update({entries[rows[b]]: message for b, message in failed.items()})
                rows = target = np.delete(rows, list(failed))
                if not rows.size:
                    return mis
                batch = batch.without(failed)
    return mis


def _run_shard(configs, shard: slice, x, d, segments, mis, failed) -> None:
    """Run the panel entries ``shard`` selects over the scenario in this process: their
    misalignment into the rows ``mis[shard]``, and ``{entry: message}`` into ``failed``."""
    entries, out = range(len(configs))[shard], mis[shard]
    for rows, batch in _panel_batches([configs[k] for k in entries]):
        out[rows] = _stream_batch(batch, [entries[r] for r in rows], x, d, segments, failed)


def _shard_count(entries: int) -> int:
    """The processes a panel of ``entries`` runs in: one per CPU this process may use.
    One where it cannot fork, or beside a second thread, which could hold a lock that
    the forked child would then wait on forever."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), entries)


def _send_shard(pipe: int, configs, shard: slice, x, d, segments, mis) -> None:
    """In a forked child: run ``shard`` and write its rows and failures, or the exception
    it raised, pickled to the ``pipe`` descriptor.  Leaves only through ``os._exit``, with
    code 0 once the whole outcome is written."""
    code = 1
    try:
        try:
            failed = {}
            _run_shard(configs, shard, x, d, segments, mis, failed)
            outcome = mis[shard], failed
        except Exception as exc:  # the parent raises it
            outcome = exc
        with open(pipe, "wb") as out:
            out.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _run_shards(configs, x, d, segments):
    """The misalignment per panel entry and sample, and ``{entry: message}`` failures.

    The entries are dealt over :func:`_shard_count` shards: shard s of k runs
    entries s, s+k, s+2k, ...  Shard 0 runs in this process; every other one
    runs in a child forked here, which sends its outcome back through a pipe.
    The children are then collected in shard order, each one drained, reaped
    and checked, so the first that failed ends the wait.  On any error the
    children still alive are killed and reaped, so none outlives the call.
    """
    k = _shard_count(len(configs))
    shards = [slice(s, None, k) for s in range(k)]
    mis, failed = np.empty((len(configs), x.size)), {}
    pids, pipes = [], []  # children not yet reaped, read ends not yet closed
    try:
        for shard in shards[1:]:
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
            except OSError:
                os.close(write)
                raise
            if pid == 0:
                _send_shard(write, configs, shard, x, d, segments, mis)
            os.close(write)
            pids.append(pid)
        _run_shard(configs, shards[0], x, d, segments, mis, failed)
        for shard, read in zip(shards[1:], pipes):
            with open(read, "rb", closefd=False) as pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]  # reaped: an interrupted wait leaves it to the kill below
            if code:
                entries = list(range(len(configs))[shard])
                raise RuntimeError(f"the process running panel entries {entries} exited with code {code}")
            outcome = pickle.loads(payload)  # written by _send_shard in a child of this process
            if isinstance(outcome, Exception):
                raise outcome
            mis[shard], shard_failed = outcome
            failed.update(shard_failed)
    finally:
        for read in pipes:
            os.close(read)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return mis, failed


def _time_to_threshold(segment_values: np.ndarray, threshold: float) -> int | None:
    hits = np.nonzero(segment_values <= threshold)[0]
    return int(hits[0]) if hits.size else None


def run_experiment(config: ExperimentConfig):
    """Run every panel entry over the scenario; return ``(traces, summary)``.

    The entries are dealt over the CPUs this process may run on, one shard
    each; a shard beyond the first runs in a forked child, and none outlives
    the call.  Within a shard, entries sharing the projection order and branch
    (projection or scalar) run as one batch built by ``filters._panel_batches``
    over one input history: one stacked error, Gram matrix, pivot test, update
    and misalignment pass per sample.  From projection order
    ``filters._RECURSE_FROM`` on, a batch forms its a-priori errors and its
    unit-gain and memory rows' Gram matrices by the fast affine projection
    recursions (see ``filters._Batch``), and its unit-gain rows keep
    fictitious weights, whose misalignment the batch streams by a scalar
    recursion (``filters._Batch.misalignment``), so there an entry agrees
    with ``AdaptiveFilter`` only to rounding.  Each trace equals the entry's
    one-entry run bit for bit, so the results do not depend on the CPU count,
    and ``taskset -c 0`` runs the whole panel in this process.  The children's
    memory is not in this process's peak RSS.  A solver failure or a
    non-finite misalignment (diverged or NaN-fed weights) aborts only the
    offending entry: it leaves the batch and is recorded in
    ``summary.failures`` with its sample index, and the others still run.
    """
    x, d = synthesize_scenario(config.scenario)
    segments = config.scenario.segments()
    traces: list[MisalignmentTrace] = []
    rows: list[SegmentSummary] = []
    mis, failed = _run_shards([cfg for _, cfg in config.panel], x, d, segments)
    failures = {config.panel[k][0]: failed[k] for k in sorted(failed)}
    for k, (label, fcfg) in enumerate(config.panel):
        if k in failed:
            continue
        idx = np.arange(0, config.scenario.total_samples, config.trace_decimation)
        traces.append(MisalignmentTrace(label, idx, mis[k, idx]))
        for j, (start, end, _) in enumerate(segments):
            seg = mis[k, start:end]
            tail = max(1, seg.size // 10)
            rows.append(
                SegmentSummary(
                    label=label,
                    segment=j,
                    time_to_threshold=_time_to_threshold(seg, THRESHOLD_DB),
                    steady_state_db=float(np.mean(seg[-tail:])),
                    mults_per_step=fcfg.multiplications_per_step,
                )
            )
    return traces, RunSummary(rows=rows, failures=failures)


def write_traces_csv(traces, summary: RunSummary, path) -> tuple[Path, Path]:
    """Write the trace CSV and its ``<path>.summary.csv`` sidecar.

    Trace rows are ``sample,label,misalignment_db`` with values at six
    significant digits; the sidecar holds one row per (label, segment).
    Returns both paths.
    """
    if not traces:
        raise ValueError("no traces to write")
    trace_path = Path(path)
    summary_path = Path(str(trace_path) + ".summary.csv")
    try:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["sample", "label", "misalignment_db"])
            for trace in traces:
                for i, v in zip(trace.sample_indices, trace.values):
                    writer.writerow([int(i), trace.label, format(v, ".6g")])
        with open(summary_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["label", "segment", "time_to_minus15db", "steady_state_db", "mults_per_step"]
            )
            for row in summary.rows:
                writer.writerow(
                    [
                        row.label,
                        row.segment,
                        "" if row.time_to_threshold is None else row.time_to_threshold,
                        format(row.steady_state_db, ".6g"),
                        row.mults_per_step,
                    ]
                )
    except OSError as exc:
        raise OSError(f"failed writing results near {trace_path}: {exc}") from exc
    return trace_path, summary_path


# The panels of the paper's two studies, as experiment-format entries at order 8.
_PRESET_PANELS = {
    "fig2": [
        {"label": f"P={p}", "variant": "bs-papa", "group_size": p} for p in (1, 4, 16, 32, 64, 1024)
    ],
    "fig3": [
        {"label": "APA", "variant": "apa"},
        {"label": "PAPA", "variant": "papa"},
        {"label": "MPAPA", "variant": "mpapa"},
        {"label": "BS-PAPA(P=32)", "variant": "bs-papa", "group_size": 32},
        {"label": "BS-MPAPA(P=32)", "variant": "bs-mpapa", "group_size": 32},
    ],
}
PRESET_NAMES = tuple(_PRESET_PANELS)


def preset_config(
    name: str,
    *,
    seed: int = 42,
    total_samples: int = 60000,
    switch_sample: int = 30000,
    snr_db: float | None = EchoScenario.snr_db,
    trace_decimation: int = ExperimentConfig.trace_decimation,
) -> ExperimentConfig:
    """Built-in benchmark presets: experiment descriptions read by :func:`experiment_from_dict`.

    Both identify a 1024-tap system whose response switches from one cluster to two
    at ``switch_sample``, with panels at projection order 8: ``fig2`` sweeps the
    BS-PAPA group size over {1, 4, 16, 32, 64, 1024}, ``fig3`` compares APA, PAPA,
    MPAPA, BS-PAPA(P=32) and BS-MPAPA(P=32).  Every field left out takes the format's
    default, the benchmark value.  A bad argument raises :class:`ConfigError` naming it.
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"preset: unknown name {name!r}; expected one of {PRESET_NAMES}")
    if not (_is_integer(switch_sample) and switch_sample >= 1):
        raise ConfigError(f"switch_sample: expected an integer >= 1, got {switch_sample!r}")
    schedule = [{"switch_sample": 0, "clusters": [[257, 288]]}]
    if not _is_integer(total_samples) or switch_sample < total_samples:  # the reader names a bad total
        schedule.append({"switch_sample": int(switch_sample), "clusters": [[257, 288], [769, 800]]})
    scenario = {"filter_length": 1024, "total_samples": total_samples, "seed": seed, "snr_db": snr_db}
    return experiment_from_dict(
        {
            "scenario": {**scenario, "schedule": schedule},
            "panel": [{**entry, "projection_order": 8} for entry in _PRESET_PANELS[name]],
            "trace_decimation": trace_decimation,
        }
    )


_REQUIRED = object()
# A field's kind: the types its value may take (a boolean is never a number;
# numpy integers and floats are, and an integer is one by ``_is_integer``) and
# the words an error names them by.  A kind of None accepts any value.
_INTEGER = ((int, np.integer), "an integer")
_NUMBER = ((int, float, np.integer, np.floating), "a number")
_STRING = ((str,), "a string")
_PAIRS = ((list,), "a list of [start, end] pairs")
_INTEGER_OR_NULL = ((int, np.integer, type(None)), "an integer")
_NUMBER_OR_NULL = ((int, float, np.integer, np.floating, type(None)), "a number")
_STRING_OR_NULL = ((str, type(None)), "a string or null")


def _checked(value, kind, path: str):
    if kind is not None:
        types, words = kind
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{path}: expected {words}, got {value!r}")
    return value


class _Fields:
    """The JSON object at ``path`` (``""``, named ``config``, at the top level), read field by
    field with kind and default; :meth:`close` rejects by name the first key no read asked for."""

    def __init__(self, raw, path: str):
        self.path, self.prefix = path or "config", f"{path}." if path else ""
        if not isinstance(raw, dict):
            raise ConfigError(f"{self.path}: expected an object")
        self.raw, self.read = raw, set()

    def __call__(self, key: str, kind=None, default=_REQUIRED):
        """The value at ``key`` checked against ``kind``, or ``default`` when absent."""
        self.read.add(key)
        if key in self.raw:
            return _checked(self.raw[key], kind, self.prefix + key)
        if default is _REQUIRED:
            raise ConfigError(f"{self.path}.{key}: missing required field")
        return default

    def entries(self, key: str):
        """The objects of the required nonempty list at ``key``, each read as a :class:`_Fields`."""
        items, path = self(key), self.prefix + key
        if not isinstance(items, list) or not items:
            raise ConfigError(f"{path}: expected a nonempty list")
        return (_Fields(item, f"{path}[{j}]") for j, item in enumerate(items))

    def close(self) -> None:
        for key in self.raw:
            if key not in self.read:
                raise ConfigError(f"{self.path}: unknown field {key!r}")


def experiment_from_dict(raw: dict) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from parsed JSON; a missing required field,
    a value of the wrong kind and an unknown key are each rejected by path."""
    top = _Fields(raw, "")
    sc = _Fields(top("scenario"), "scenario")
    filter_length = sc("filter_length", _INTEGER)
    if filter_length < 1:  # before the responses, which would report it under their clusters
        raise ConfigError(f"{sc.prefix}filter_length: expected a positive integer, got {filter_length}")
    schedule = []
    for j, entry in enumerate(sc.entries("schedule")):
        clusters, path = entry("clusters", _PAIRS), entry.prefix + "clusters"
        for k, pair in enumerate(clusters):  # JSON integers only: 1.5 or true is no tap
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"{path}[{k}]: expected a [start, end] pair, got {pair!r}")
            for value in pair:
                _checked(value, _INTEGER, f"{path}[{k}]")
        # fixed by default, so a run with another scenario seed identifies the same systems
        ir_seed = entry("seed", _INTEGER, 1001 + j)
        if ir_seed < 0:
            raise ConfigError(f"{entry.prefix}seed: expected a non-negative integer, got {ir_seed}")
        switch = entry("switch_sample", _INTEGER)
        entry.close()
        try:
            response = make_block_sparse_ir(filter_length, clusters, seed=ir_seed)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        schedule.append((switch, response))
    seed = sc("seed", _INTEGER, EchoScenario.seed)
    total = sc("total_samples", _INTEGER)
    excitation = sc("excitation", _STRING, EchoScenario.excitation)
    pole = sc("pole", _NUMBER_OR_NULL, EchoScenario.pole)
    snr_db = sc("snr_db", _NUMBER_OR_NULL, EchoScenario.snr_db)
    sc.close()
    try:
        scenario = EchoScenario(
            schedule=tuple(schedule),
            excitation=excitation,
            pole=pole,
            snr_db=snr_db,
            seed=seed,
            total_samples=total,
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc

    panel = []
    for entry in top.entries("panel"):
        label = entry("label", _STRING)
        order = entry("projection_order", _INTEGER, FilterConfig.projection_order)
        group = entry("group_size", _INTEGER_OR_NULL, FilterConfig.group_size)
        step_size = entry("step_size", _NUMBER, FilterConfig.step_size)
        regularization = entry("regularization", _NUMBER, FilterConfig.regularization)
        rho, q = (entry(key, _NUMBER, getattr(StallGuards, key)) for key in ("rho", "q"))
        variant = entry("variant", _STRING)
        entry("regressor_mode", None, None)  # read by earlier versions; accepted and ignored
        entry.close()
        try:
            cfg = FilterConfig(
                variant=variant,
                filter_length=filter_length,
                projection_order=order,
                group_size=group,
                step_size=step_size,
                regularization=regularization,
                guards=StallGuards(rho=rho, q=q),
            )
        except ValueError as exc:
            raise ConfigError(f"{entry.path}: {exc}") from exc
        panel.append((label, cfg))
    decimation = top("trace_decimation", _INTEGER, ExperimentConfig.trace_decimation)
    output_path = top("output_path", _STRING_OR_NULL, ExperimentConfig.output_path)
    top.close()
    return ExperimentConfig(
        scenario=scenario,
        panel=panel,
        trace_decimation=decimation,
        output_path=output_path,
    )


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a JSON experiment file into an :class:`ExperimentConfig`."""
    import json

    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    return experiment_from_dict(raw)


def with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Copy of ``config`` whose scenario uses ``seed``."""
    return replace(config, scenario=replace(config.scenario, seed=seed))

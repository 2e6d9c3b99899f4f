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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .filters import FilterConfig, RegressorHistory, _Batch
from .gains import StallGuards
from .signals import (
    EchoScenario,
    _misalignment_rows,
    _power,
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
PRESET_NAMES = ("fig2", "fig3")

# Fixed seeds for the preset impulse responses, so replication runs with a
# different scenario seed still identify the same true systems.
_PRESET_IR_SEEDS = (1001, 1002)
_PRESET_SCENARIO_SEED = 42


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
            if cfg.filter_length != self.scenario.filter_length:
                raise ConfigError(
                    f"panel[{label!r}].filter_length: {cfg.filter_length} does not match "
                    f"the scenario length {self.scenario.filter_length}"
                )
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
    SNR on target on both sides of every switch.
    """
    x = gen_excitation(
        scenario.total_samples, _substream_seed(scenario.seed, 0), scenario.excitation, scenario.pole
    )
    d = np.empty(scenario.total_samples)
    for j, (start, end, response) in enumerate(scenario.segments()):
        clean = lfilter(response.taps, [1.0], x)[start:end]
        if scenario.snr_db is not None:
            clean = clean + scale_noise_for_snr(
                clean, scenario.snr_db, _substream_seed(scenario.seed, 1 + j)
            )
        d[start:end] = clean
    return x, d


def _stream_batch(configs, x, d, segments):
    """Run filters sharing (L, M) and branch, memory members last, as one batch:
    the misalignment per config and sample, and ``{index: failure}``."""
    length, order = configs[0].filter_length, configs[0].projection_order
    rings = np.zeros((sum(c.is_memory for c in configs), 2 * order, length))
    batch = _Batch(configs, np.zeros((len(configs), length)), rings)
    history, desired = RegressorHistory(length, order), np.zeros(order)
    mis, failures = np.empty((len(configs), x.size)), {}
    rows = np.arange(len(configs))  # config index of each batch row
    target = slice(None)  # indexes ``rows`` faster while no filter has left
    for start, end, response in segments:
        truth, power = response.taps, _power(response.taps)
        for n in range(start, end):
            history.push(x[n])
            desired[1:] = desired[:-1]
            desired[0] = d[n]
            _, singular = batch.step(history, desired)
            mis[target, n] = values = _misalignment_rows(truth, power, batch.weights)
            if singular or not all(map(math.isfinite, values)):
                # NaN or inf: the weights left the finite range
                failed = {b: f"diverged at sample {n}: misalignment is {v} dB"
                          for b, v in enumerate(values) if not math.isfinite(v)}
                failed.update({b: f"aborted at sample {n}: {exc}" for b, exc in singular.items()})
                failures.update({int(rows[b]): message for b, message in failed.items()})
                rows = target = np.delete(rows, list(failed))
                if not rows.size:
                    return mis, failures
                batch = batch.without(failed)
    return mis, failures


def _time_to_threshold(segment_values: np.ndarray, threshold: float) -> int | None:
    hits = np.nonzero(segment_values <= threshold)[0]
    return int(hits[0]) if hits.size else None


def run_experiment(config: ExperimentConfig):
    """Run every panel entry over the scenario; return ``(traces, summary)``.

    Entries sharing the projection order and branch (projection or scalar)
    run as one batch of the step kernel over one input history: one stacked
    error, Gram matrix, pivot test, update and misalignment pass per sample.
    Each trace equals the entry's one-entry run bit for bit.  A solver
    failure or a non-finite misalignment (diverged or NaN-fed weights)
    aborts only the offending entry: it leaves the batch and is recorded in
    ``summary.failures`` with its sample index, and the others still run.
    """
    x, d = synthesize_scenario(config.scenario)
    segments = config.scenario.segments()
    traces: list[MisalignmentTrace] = []
    rows: list[SegmentSummary] = []
    batches, results, failed = {}, {}, {}
    # one batch per (order, branch); the batch kernel wants its memory members last
    for k, (_, fcfg) in sorted(enumerate(config.panel), key=lambda e: e[1][1].is_memory):
        batches.setdefault((fcfg.projection_order, fcfg.is_scalar), []).append(k)
    for members in batches.values():
        mis, lost = _stream_batch([config.panel[k][1] for k in members], x, d, segments)
        results.update(zip(members, mis))
        failed.update({members[b]: message for b, message in lost.items()})
    failures = {config.panel[k][0]: failed[k] for k in sorted(failed)}
    for k, (label, fcfg) in enumerate(config.panel):
        if k in failed:
            continue
        mis = results[k]
        idx = np.arange(0, config.scenario.total_samples, config.trace_decimation)
        traces.append(MisalignmentTrace(label, idx, mis[idx]))
        for j, (start, end, _) in enumerate(segments):
            seg = mis[start:end]
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


def _paper_filter(variant: str, group_size: int | None = None) -> FilterConfig:
    """Filter under the benchmark's standard parameter bundle."""
    return FilterConfig(
        variant=variant,
        filter_length=1024,
        projection_order=8,
        group_size=group_size,
        step_size=0.01,
        regularization=0.01,
        guards=StallGuards(rho=0.01, q=0.01),
    )


def preset_config(
    name: str,
    *,
    seed: int = _PRESET_SCENARIO_SEED,
    total_samples: int = 60000,
    switch_sample: int = 30000,
    snr_db: float | None = 30.0,
    trace_decimation: int = 10,
) -> ExperimentConfig:
    """Built-in benchmark presets.

    Both presets identify a 1024-tap system driven by AR(1) colored noise
    (pole 0.8) at 30 dB SNR, switching from a one-cluster response to a
    two-cluster response at sample 30000.  ``fig2`` sweeps the BS-PAPA
    group size over {1, 4, 16, 32, 64, 1024}; ``fig3`` compares APA, PAPA,
    MPAPA, BS-PAPA(P=32) and BS-MPAPA(P=32).
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"preset: unknown name {name!r}; expected one of {PRESET_NAMES}")
    one_cluster = make_block_sparse_ir(1024, [(257, 288)], seed=_PRESET_IR_SEEDS[0])
    two_cluster = make_block_sparse_ir(1024, [(257, 288), (769, 800)], seed=_PRESET_IR_SEEDS[1])
    schedule = [(0, one_cluster)]
    if switch_sample < total_samples:
        schedule.append((switch_sample, two_cluster))
    scenario = EchoScenario(
        schedule=tuple(schedule),
        excitation="ar1",
        pole=0.8,
        snr_db=snr_db,
        seed=seed,
        total_samples=total_samples,
    )
    if name == "fig2":
        panel = [(f"P={p}", _paper_filter("bs-papa", p)) for p in (1, 4, 16, 32, 64, 1024)]
    else:
        panel = [
            ("APA", _paper_filter("apa")),
            ("PAPA", _paper_filter("papa")),
            ("MPAPA", _paper_filter("mpapa")),
            ("BS-PAPA(P=32)", _paper_filter("bs-papa", 32)),
            ("BS-MPAPA(P=32)", _paper_filter("bs-mpapa", 32)),
        ]
    return ExperimentConfig(scenario=scenario, panel=panel, trace_decimation=trace_decimation)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _integer(value, path: str) -> int:
    """``value`` if it is a JSON integer; floats and booleans are not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _number(value, path: str):
    """``value`` if it is a JSON number; null, booleans and strings are not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return value


def experiment_from_dict(raw: dict) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from parsed JSON, with field-path errors."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    sc = _require(raw, "scenario", "config")
    if not isinstance(sc, dict):
        raise ConfigError("scenario: expected an object")
    filter_length = _integer(_require(sc, "filter_length", "scenario"), "scenario.filter_length")
    schedule_raw = _require(sc, "schedule", "scenario")
    if not isinstance(schedule_raw, list) or not schedule_raw:
        raise ConfigError("scenario.schedule: expected a nonempty list")
    schedule = []
    for j, entry in enumerate(schedule_raw):
        path = f"scenario.schedule[{j}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected an object")
        clusters = _require(entry, "clusters", path)
        if not isinstance(clusters, list):
            raise ConfigError(f"{path}.clusters: expected a list of [start, end] pairs, got {clusters!r}")
        for k, pair in enumerate(clusters):  # JSON integers only: 1.5 or true is no tap
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"{path}.clusters[{k}]: expected a [start, end] pair, got {pair!r}")
            for value in pair:
                _integer(value, f"{path}.clusters[{k}]")
        ir_seed = _integer(entry.get("seed", _PRESET_IR_SEEDS[0] + j), f"{path}.seed")
        switch = _integer(_require(entry, "switch_sample", path), f"{path}.switch_sample")
        try:
            response = make_block_sparse_ir(filter_length, clusters, seed=ir_seed)
        except ValueError as exc:
            raise ConfigError(f"{path}.clusters: {exc}") from exc
        schedule.append((switch, response))
    seed = _integer(sc.get("seed", 0), "scenario.seed")
    total = _integer(_require(sc, "total_samples", "scenario"), "scenario.total_samples")
    excitation = sc.get("excitation", "ar1")
    if not isinstance(excitation, str):
        raise ConfigError(f"scenario.excitation: expected a string, got {excitation!r}")
    pole, snr_db = sc.get("pole", 0.8), sc.get("snr_db", 30.0)
    pole = None if pole is None else _number(pole, "scenario.pole")
    snr_db = None if snr_db is None else _number(snr_db, "scenario.snr_db")
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

    panel_raw = _require(raw, "panel", "config")
    if not isinstance(panel_raw, list) or not panel_raw:
        raise ConfigError("panel: expected a nonempty list")
    panel = []
    for j, entry in enumerate(panel_raw):
        path = f"panel[{j}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected an object")
        label = str(_require(entry, "label", path))
        order = _integer(entry.get("projection_order", 1), f"{path}.projection_order")
        group = entry.get("group_size")
        group = None if group is None else _integer(group, f"{path}.group_size")
        step_size, regularization, rho, q = (
            float(_number(entry.get(key, 0.01), f"{path}.{key}"))
            for key in ("step_size", "regularization", "rho", "q")
        )
        try:
            cfg = FilterConfig(
                variant=str(_require(entry, "variant", path)),
                filter_length=filter_length,
                projection_order=order,
                group_size=group,
                step_size=step_size,
                regularization=regularization,
                guards=StallGuards(rho=rho, q=q),
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        panel.append((label, cfg))
    decimation = _integer(raw.get("trace_decimation", 10), "trace_decimation")
    output_path = raw.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(f"output_path: expected a string or null, got {output_path!r}")
    try:
        return ExperimentConfig(
            scenario=scenario,
            panel=panel,
            trace_decimation=decimation,
            output_path=output_path,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    return ExperimentConfig(
        scenario=replace(config.scenario, seed=seed),
        panel=list(config.panel),
        trace_decimation=config.trace_decimation,
        output_path=config.output_path,
    )

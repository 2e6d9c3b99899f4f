"""The bspapa benchmark: time one workload end to end, or trace it layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-panels --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload and reports the end-to-end metrics;
``--trace 1`` replays it through the package's public pieces and reports
the per-layer metrics.  Both first run the workload once on a reference
seed as a warm-up and check its outputs against ``references/``.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
# Least timed work between two calibrations (see calibrate.py).
CHUNK_SECONDS = 1.5

PER_LAYER_UNITS = {
    **{f"filters.{part}_us": "us" for part in ("push", "error", "build", "gram", "solve", "update")},
    "gains.us": "us",
    "filters.step_self_us": "us",
    "filters.step_us_mean": "us",
    "filters.step_us_p50": "us",
    "filters.step_us_p99": "us",
    "filters.solve_calls": "count",
    "filters.singular_count": "count",
    "signals.misalignment_us": "us",
    "trace.replay_max_dw": "1",
    **{f"filters.{part}_products": "count" for part in ("gains", "error", "build", "gram", "solve", "update", "step")},
    **{f"filters.{part}_bytes": "bytes" for part in ("gains", "error", "build", "gram", "solve", "update", "step")},
    "bench.loop_self_us": "us",
    "bench.synthesize_ms": "ms",
    "bench.csv_write_ms": "ms",
    "bench.csv_bytes": "bytes",
    "bench.entry_us_min": "us",
    "bench.entry_us_max": "us",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def machine_facts(root: Path) -> dict:
    """Where the numbers came from: cores, CPU, caches, BLAS, versions, commit."""
    import numpy as np
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown"
            )
    except OSError:
        pass
    for level in (2, 3):
        facts[f"l{level}_cache"] = _cache_size(level)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    facts["blas_config"], facts["blas_threads"] = _openblas_runtime(np)
    facts["commit"] = _commit(root)
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "bspapa").glob("*.py")):
        digest.update(path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()
    return facts


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) and (index / "type").read_text().strip() != "Instruction":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def _openblas_runtime(np):
    """Build string and thread count of the OpenBLAS bundled with numpy's wheel."""
    import ctypes

    for lib_path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get_config is not None and get_threads is not None:
            get_config.restype, get_threads.restype = ctypes.c_char_p, ctypes.c_int
            return get_config().decode(), get_threads()
    return "unknown", "unknown"


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (checkout has no git metadata)"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time measured in one fresh process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Check:
    """Output checks over every rep of a run, counted per filter run."""

    def __init__(self, references: dict, tolerance: float):
        self.references = references
        self.tolerance = tolerance
        self.attempted = 0
        self.failed = 0
        self.mis_dev_db = 0.0
        self.compared = 0
        self.problems = []

    def rep(self, rep, labels, seed: int, first=None) -> None:
        """Check one rep: no abort, finite values above the floor, reference and repeat match."""
        reference = self.references.get(str(seed))
        for label in labels:
            self.attempted += 1
            problem = self._problem(rep, label, reference, first)
            if problem:
                self.failed += 1
                self.problems.append(f"seed {seed} {label}: {problem}")

    def _problem(self, rep, label, reference, first):
        import numpy as np

        from workloads import MISALIGNMENT_FLOOR_DB

        if label in rep.failures:
            return rep.failures[label]
        values = rep.traces.get(label)
        if values is None:
            return "no trace recorded"
        if not np.all(np.isfinite(values)):
            return "non-finite misalignment"
        if np.any(values <= MISALIGNMENT_FLOOR_DB):
            return "misalignment at the -300 dB floor sentinel"
        if first is not None and not np.array_equal(values, first.traces.get(label)):
            return "differs from the first rep with the same seed"
        if reference is not None:
            expected = np.asarray(reference.get(label, []))
            if expected.shape != values.shape:
                return f"reference holds {expected.shape} values, run recorded {values.shape}"
            dev = float(np.max(np.abs(values - expected)))
            self.mis_dev_db = max(self.mis_dev_db, dev)
            self.compared += 1
            if not dev <= self.tolerance:
                return f"deviates from the reference by {dev:.3e} dB"
        return None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def timed_reps(workloads, plan, seconds: float, check: Check, seed: int) -> list:
    """Reps of ``plan`` until ``seconds`` of timed work have passed (at least one)."""
    reps = []
    done = 0.0
    while not reps or done < seconds:
        rep = workloads.run(plan)
        check.rep(rep, plan.labels(), seed, first=reps[0] if reps else None)
        reps.append(rep)
        done += rep.seconds
    return reps


def end_to_end(workloads, args, plan, check: Check) -> tuple:
    import calibrate

    # Each run_experiment call (panels), or each run of stream reps adding up
    # to CHUNK_SECONDS, is a chunk; the calibration kernels are timed after
    # every chunk.  A chunk's µs per filter-sample is divided by the mean of
    # the calibration factors just before and just after it.  Per call name,
    # the median of those ratios is taken, and the medians are weighted by
    # the call's filter-samples.  The set-up probes are spread over the run.
    factors = [calibrate.factor()]
    ratios, weight, pending = {}, {}, {}

    def close(name: str) -> None:
        seconds, samples = pending.pop(name)
        factors.append(calibrate.factor())
        ratios.setdefault(name, []).append(seconds / samples * 1e6 / ((factors[-2] + factors[-1]) / 2))

    def after_call(name: str, seconds: float, samples: int) -> None:
        weight[name] = samples
        acc = pending.setdefault(name, [0.0, 0])
        acc[0] += seconds
        acc[1] += samples
        if acc[0] >= CHUNK_SECONDS:
            close(name)

    def probe() -> None:
        for name in list(pending):
            close(name)
        setup.append(setup_seconds(args.workload, args.seed))
        factors.append(calibrate.factor())

    # A rep starts only if it is expected to end less than half a rep past
    # ``--seconds``, so the timed work adds up to about ``--seconds``.
    setup, reps, done = [], [], 0.0
    while not reps or done + reps[-1].seconds / 2 < args.seconds:
        if len(setup) < min(SETUP_PROBES, 1 + int(done / args.seconds * SETUP_PROBES)):
            probe()
        rep = workloads.run(plan, after_call)
        check.rep(rep, plan.labels(), args.seed, first=reps[0] if reps else None)
        reps.append(rep)
        done += rep.seconds
    for name in list(pending):
        close(name)
    while len(setup) < SETUP_PROBES:
        probe()
    per_rep = [r.us_per_filter_sample for r in reps]
    steady = statistics.fmean(reps[0].steady_db)
    cal_us = sum(statistics.median(ratios[n]) * weight[n] for n in ratios) / sum(weight[n] for n in ratios)
    factor = statistics.median(factors)
    metrics = {
        "cal_us_per_filter_sample": (cal_us, "us"),
        "setup_s": (statistics.median(setup) / factor, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "steady_state_atten_db": (-steady, "dB"),
    }
    print(f"reps {len(reps)}: us_per_filter_sample per rep {[round(v, 1) for v in per_rep]}")
    print("calibrated chunks " + json.dumps({n: [round(v, 1) for v in r] for n, r in ratios.items()}))
    print(f"calibration factors {[round(f, 3) for f in factors]}")
    print(f"setup probes (s) {[round(v, 3) for v in setup]}")
    n_chunks = sum(len(r) for r in ratios.values())
    shown = [
        ("cal_us_per_filter_sample", cal_us, "us", f"calibrated, {n_chunks} chunks"),
        ("us_per_filter_sample", statistics.median(per_rep), "us", f"raw, median of {len(reps)} reps"),
    ]
    if reps[0].call_seconds is not None:
        import numpy as np

        calls = np.concatenate([r.call_seconds for r in reps]) * 1e6
        shown.append(
            ("step_us_p50", float(np.median(calls)), "us", f"AdaptiveFilter.process, raw, n={calls.size}")
        )
    else:
        shown.append(("step_us_p50", None, "us", "stream-order1 only"))
    shown += [
        ("setup_s", metrics["setup_s"][0], "s", f"calibrated, median of {SETUP_PROBES} fresh processes"),
        ("setup_s_raw", statistics.median(setup), "s", f"median of {SETUP_PROBES} fresh processes"),
        ("calibration_factor", factor, "", f"median of {len(factors)}"),
        ("peak_rss_mib", metrics["peak_rss_mib"][0], "MiB", "this process"),
        ("fail_ratio", check.failed / check.attempted, "", f"{check.failed}/{check.attempted} filter runs"),
        ("mis_dev_db", check.mis_dev_db, "dB", f"{check.compared} traces against references/"),
        ("steady_state_db", steady, "dB", f"mean of {len(reps[0].steady_db)} filter-segments"),
    ]
    return metrics, shown


def per_layer(workloads, args, plan, check: Check) -> tuple:
    from bspapa import synthesize_scenario, write_traces_csv
    from replay import Replay

    # Untraced reps: the base of the overhead ratio and of the independence check.
    reps = timed_reps(workloads, plan, args.seconds / 4, check, args.seed)
    untraced_us = statistics.median(r.us_per_filter_sample for r in reps)

    replay = Replay()
    while replay.steps == 0 or replay.wall < args.seconds / 2:
        replay.run_plan(plan)
    metrics = replay.metrics()
    check.attempted += len(replay.costs)
    if metrics["trace.replay_max_dw"] != 0.0:
        check.fail(f"replayed weights differ from filter_step by {metrics['trace.replay_max_dw']:.3e}")
    if metrics["filters.singular_count"]:
        check.fail(f"{metrics['filters.singular_count']} replayed filter runs hit a singular system")

    entries = workloads.run_entries_alone(plan, reps[0])
    for label, (_, same) in entries.items():
        check.attempted += 1
        if not same:
            check.fail(f"{label}: run alone, its trace differs from the full panel's")

    scenarios = (
        {name: cfg.scenario for name, cfg in plan.experiments.items()}
        if isinstance(plan, workloads.PanelPlan)
        else {"stream": plan.scenario}
    )
    synth_s = {}
    for name, scenario in scenarios.items():
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            synthesize_scenario(scenario)
            samples.append(time.perf_counter() - t0)
        synth_s[name] = statistics.median(samples)

    out_dir = workloads.ROOT / ".bench_tmp"
    out_dir.mkdir(exist_ok=True)
    csv_seconds, csv_bytes = 0.0, 0
    try:
        for name, traces, summary in reps[0].outputs:
            t0 = time.perf_counter()
            paths = write_traces_csv(traces, summary, out_dir / f"{args.workload}-{name.replace('/', '-')}.csv")
            csv_seconds += time.perf_counter() - t0
            for path in paths:
                csv_bytes += path.stat().st_size
                path.unlink()
    finally:
        out_dir.rmdir()

    metrics.update(
        {
            "bench.synthesize_ms": sum(synth_s.values()) * 1e3,
            "bench.csv_write_ms": csv_seconds * 1e3,
            "bench.csv_bytes": csv_bytes,
            "bench.entry_us_min": min(us for us, _ in entries.values()),
            "bench.entry_us_max": max(us for us, _ in entries.values()),
            "trace.overhead_ratio": replay.wall / replay.steps * 1e6 / untraced_us,
        }
    )
    print("entry_us " + json.dumps({label: us for label, (us, _) in entries.items()}))
    print(f"traced steps {replay.steps}; untraced us_per_filter_sample {untraced_us:.1f}")
    result = {name: (value, PER_LAYER_UNITS[name]) for name, value in metrics.items()}
    shown = [(name, value, unit, "") for name, (value, unit) in result.items()]
    shown += [
        ("fail_ratio", check.failed / check.attempted, "", f"{check.failed}/{check.attempted} filter runs"),
        ("mis_dev_db", check.mis_dev_db, "dB", f"{check.compared} traces against references/"),
    ]
    return result, shown


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import bspapa from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    try:
        references = json.loads((HERE / "references" / f"{args.workload}.json").read_text())["seeds"]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: no usable reference for {args.workload}: {exc}", file=sys.stderr)
        return 2

    print(f"# bspapa benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(machine_facts(workloads.ROOT)))
    check = Check(references, workloads.REFERENCE_TOLERANCE_DB)
    # Warm-up: one rep on a reference seed, alternating with the run's seed,
    # checked against the committed reference.
    ref_seed = workloads.REFERENCE_SEEDS[args.seed % len(workloads.REFERENCE_SEEDS)]
    ref_plan = workloads.build(args.workload, ref_seed)
    check.rep(workloads.run(ref_plan), ref_plan.labels(), ref_seed)
    plan = workloads.build(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, shown = measure(workloads, args, plan, check)

    for name, value, unit, note in shown:
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<28} {text:>14} {unit:<6} {note}")
    for problem in check.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the frozen reference numbers come from the seeded reference runs of
the built-in presets (seed 42) and stay valid as long as the presets and
their seeds do.
"""

import csv
import math
import time

import numpy as np
import pytest

from bspapa import (
    AdaptiveFilter,
    BlockPartition,
    FilterConfig,
    GainVector,
    RegressorHistory,
    StallGuards,
    build_weighted_regressor_direct,
    build_weighted_regressor_efficient,
    preset_config,
    run_experiment,
    synthesize_scenario,
    variant_gains,
)
from bspapa.bench import THRESHOLD_DB
from bspapa.cli import main as cli_main
from oracles import reduction_gaps

# Segment-0 samples to reach -15 dB in the frozen-seed fig2 reference run.
FIG2_REFERENCE_TIME_TO_15DB = {
    "P=1": 3385,
    "P=4": 2489,
    "P=16": 1969,
    "P=32": 1804,
    "P=64": 3018,
    "P=1024": 24704,
}


def _report(number, name, ok, detail):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _read_summary_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {(r["label"], int(r["segment"])): r for r in rows}


def test_criterion_1_reduction_equivalences():
    start = time.perf_counter()
    gaps = reduction_gaps(num_steps=1000, filter_length=64, projection_order=4, group_size=8)
    elapsed = time.perf_counter() - start
    worst = max(gaps.values())
    ok = len(gaps) == 5 and worst <= 1e-10 and elapsed < 5.0
    _report(
        1,
        "reduction equivalences",
        ok,
        f"max |dw| = {worst:.2e}, bs-papa/bs-mpapa against classical {sorted(gaps)} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_2_direct_efficient_equivalence():
    filter_length = 64
    groups = (1, 4, 32, filter_length)
    orders = (1, 2, 8)
    combos = [(p, m) for p in groups for m in orders]
    total = 10_000
    rng = np.random.default_rng(20_24)
    start = time.perf_counter()
    checked = 0
    while checked < total:
        group, order = combos[checked % len(combos)]
        history = RegressorHistory(filter_length, order)
        history.extend(rng.standard_normal(rng.integers(1, filter_length + order + 8)))
        part = BlockPartition(filter_length, group)
        gains = GainVector(rng.uniform(0.0, 4.0, part.block_count), part)
        direct = build_weighted_regressor_direct(gains, history)
        efficient = build_weighted_regressor_efficient(gains, history)
        if not np.array_equal(direct.matrix, efficient.matrix):
            _report(2, "direct/efficient regressor equivalence", False,
                    f"mismatch at P={group} M={order} instance {checked}")
        checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(
        2,
        "direct/efficient regressor equivalence",
        ok,
        f"{total} instances bit-exact across P in {groups}, M in {orders} in {elapsed:.1f}s",
    )


def test_criterion_3_multiplication_counts():
    rng = np.random.default_rng(3)
    failures = []
    for filter_length, group, order in [
        (1024, 32, 8),
        (64, 1, 4),
        (64, 64, 4),
        (48, 16, 1),
        (128, 8, 2),
    ]:
        history = RegressorHistory(filter_length, order)
        history.extend(rng.standard_normal(filter_length + order))
        part = BlockPartition(filter_length, group)
        gains = GainVector(rng.uniform(0.1, 2.0, part.block_count), part)
        direct = build_weighted_regressor_direct(gains, history)
        efficient = build_weighted_regressor_efficient(gains, history)
        blocks = filter_length // group
        if direct.multiplication_count != order * filter_length:
            failures.append((filter_length, group, order, "direct"))
        if efficient.multiplication_count != (group + order - 1) * blocks:
            failures.append((filter_length, group, order, "efficient"))
        if (filter_length, group, order) == (1024, 32, 8):
            flagship = (direct.multiplication_count, efficient.multiplication_count)
    ok = not failures and flagship == (8192, 1248)
    _report(
        3,
        "multiplication counts",
        ok,
        f"L=1024,P=32,M=8 gives direct {flagship[0]} vs efficient {flagship[1]}; "
        f"mismatches: {failures or 'none'}",
    )


def test_criterion_4_gain_normalization():
    guards = StallGuards(rho=0.01, q=0.01)
    shapes = [(32, 4), (64, 8), (16, 1), (24, 24), (64, 2)]
    configs = [FilterConfig("bs-papa", length, group_size=group, guards=guards) for length, group in shapes]
    rng = np.random.default_rng(4)
    worst_sum_error = 0.0
    min_gain = np.inf
    for i in range(100_000):
        config = configs[i % len(configs)]
        filter_length = config.filter_length
        weights = rng.standard_normal(filter_length)
        if i % 7 == 0:
            weights[rng.random(filter_length) < 0.9] = 0.0
        gains = variant_gains(config, weights)
        expanded = gains.expand()
        worst_sum_error = max(worst_sum_error, abs(float(expanded.sum()) - filter_length))
        min_gain = min(min_gain, float(gains.block_gains.min()))
    ok = worst_sum_error <= 1e-9 and min_gain > 0.0
    _report(
        4,
        "gain normalization",
        ok,
        f"100000 vectors: worst |sum(G) - L| = {worst_sum_error:.2e}, min gain = {min_gain:.2e}",
    )


def test_criterion_5_group_size_sweep(fig2_results):
    traces, summary, elapsed = fig2_results
    assert not summary.failures, f"sweep runs failed: {summary.failures}"
    ttm = {label: summary.row(label, 0).time_to_threshold for label in FIG2_REFERENCE_TIME_TO_15DB}
    problems = []
    for label, value in ttm.items():
        if value is None:
            problems.append(f"{label} never reached -15 dB")
    if not problems:
        if not ttm["P=32"] < ttm["P=16"]:
            problems.append(f"P=32 ({ttm['P=32']}) not faster than P=16 ({ttm['P=16']})")
        if not ttm["P=64"] < ttm["P=1"]:
            problems.append(f"P=64 ({ttm['P=64']}) not faster than P=1 ({ttm['P=1']})")
        if not ttm["P=32"] < ttm["P=1024"]:
            problems.append(f"P=32 ({ttm['P=32']}) not faster than P=1024 ({ttm['P=1024']})")
        for label, reference in FIG2_REFERENCE_TIME_TO_15DB.items():
            if not 0.9 * reference <= ttm[label] <= 1.1 * reference:
                problems.append(f"{label}: {ttm[label]} outside +/-10% of reference {reference}")
    if elapsed >= 120.0:
        problems.append(f"sweep took {elapsed:.0f}s (budget 120s)")
    _report(
        5,
        "group-size sweep reproduction",
        not problems,
        problems or f"segment-0 times {ttm} in {elapsed:.0f}s",
    )


# Scenario seeds of the ensemble check.  Disjoint from seed 42 (criterion 5),
# from 1601, 1-7, 100-111 and 200-211 (the seed studies behind this check) and
# from every seed in BENCH_*.json; chosen once, before the check first ran.
ENSEMBLE_SEEDS = range(3001, 3013)


def test_criterion_5_orderings_over_a_seed_ensemble():
    """Criterion 5's orderings on the learning curve averaged over scenario seeds.

    One seed's curve can put P=64 behind P=1 by the draw alone (a 4% margin over
    an earlier ensemble).  Learning curves are ensemble averages: the linear
    misalignment of each entry is averaged over the seeds, over fig2's first
    segment (6000 samples, too short for P=1024, which never reaches -15 dB).
    """
    labels = list(FIG2_REFERENCE_TIME_TO_15DB)
    start = time.perf_counter()
    power = 0.0
    wins = {"P=32 fastest": 0, "P=64 before P=1": 0}
    for seed in ENSEMBLE_SEEDS:
        config = preset_config("fig2", seed=seed, total_samples=6000, switch_sample=6000, trace_decimation=1)
        traces, summary = run_experiment(config)
        assert not summary.failures, f"seed {seed}: {summary.failures}"
        assert [trace.label for trace in traces] == labels
        power = power + 10.0 ** (np.array([trace.values for trace in traces]) / 10.0)
        own = {label: summary.row(label, 0).time_to_threshold for label in labels}
        own = {label: math.inf if value is None else value for label, value in own.items()}
        wins["P=32 fastest"] += all(own["P=32"] < own[label] for label in labels if label != "P=32")
        wins["P=64 before P=1"] += own["P=64"] < own["P=1"]
    elapsed = time.perf_counter() - start
    ttm = {}
    for label, curve in zip(labels, 10.0 * np.log10(power / len(ENSEMBLE_SEEDS))):
        hits = np.flatnonzero(curve <= THRESHOLD_DB)
        ttm[label] = int(hits[0]) if hits.size else math.inf
    runner_up = min((label for label in labels if label != "P=32"), key=ttm.get)
    margin_32 = 1.0 - ttm["P=32"] / ttm[runner_up]
    margin_64 = 1.0 - ttm["P=64"] / ttm["P=1"]
    ok = margin_32 > 0.0 and margin_64 > 0.0
    k = len(ENSEMBLE_SEEDS)
    _report(
        "5e",
        "group-size orderings over a seed ensemble",
        ok,
        f"K={k} seeds {ENSEMBLE_SEEDS.start}-{ENSEMBLE_SEEDS.stop - 1}, averaged times {ttm}; "
        f"P=32 leads {runner_up} by {margin_32:.1%}, P=64 leads P=1 by {margin_64:.1%}; "
        f"per seed: P=32 fastest {wins['P=32 fastest']}/{k}, P=64 before P=1 {wins['P=64 before P=1']}/{k}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_algorithm_comparison(fig3_artifacts):
    _, summary_csv, elapsed = fig3_artifacts
    table = _read_summary_csv(summary_csv)

    def ttm(label, segment):
        cell = table[(label, segment)]["time_to_minus15db"]
        return None if cell == "" else int(cell)

    def steady(label, segment):
        return float(table[(label, segment)]["steady_state_db"])

    problems = []
    for segment in (0, 1):
        pairs = [("BS-PAPA(P=32)", "PAPA"), ("BS-MPAPA(P=32)", "MPAPA")]
        for block_label, plain_label in pairs:
            a, b = ttm(block_label, segment), ttm(plain_label, segment)
            if a is None or b is None or not a < b:
                problems.append(f"segment {segment}: {block_label} ({a}) not faster than {plain_label} ({b})")
        gap = abs(steady("BS-MPAPA(P=32)", segment) - steady("BS-PAPA(P=32)", segment))
        if gap > 2.0:
            problems.append(f"segment {segment}: memory steady-state gap {gap:.2f} dB > 2 dB")
    if elapsed >= 120.0:
        problems.append(f"comparison took {elapsed:.0f}s (budget 120s)")
    _report(
        6,
        "algorithm comparison reproduction",
        not problems,
        problems
        or "block-sparse members faster in both segments; "
        f"steady-state gaps {[round(abs(steady('BS-MPAPA(P=32)', s) - steady('BS-PAPA(P=32)', s)), 3) for s in (0, 1)]} dB",
    )


# Scenario seeds of the fig3 ensemble check.  Disjoint from every seed above,
# from 5001-5004 (the sizing runs behind this check), from 701-704, 801-816
# and 901-932 (earlier timing runs) and from every seed in BENCH_*.json;
# chosen once, before the check first ran.
FIG3_ENSEMBLE_SEEDS = range(6001, 6009)
FIG3_PAIRS = (("BS-PAPA(P=32)", "PAPA"), ("BS-MPAPA(P=32)", "MPAPA"))


def test_criterion_6_orderings_over_a_seed_ensemble():
    """Criterion 6's orderings and memory gap on the learning curve averaged over scenario seeds.

    As for criterion 5e, the linear misalignment of each entry is averaged over
    the seeds.  fig3 runs 12 000 samples with the switch at 4000: PAPA and MPAPA
    reach -15 dB within 4000 samples in segment 0, and every entry reaches it
    within the 8000 of segment 1.  Times are counted from each segment's start;
    the steady state is the mean over a segment's last tenth, as in the summary.
    """
    switch, total = 4000, 12000
    start = time.perf_counter()
    power = 0.0
    wins = {(block, segment): 0 for block, _ in FIG3_PAIRS for segment in (0, 1)}
    for seed in FIG3_ENSEMBLE_SEEDS:
        config = preset_config("fig3", seed=seed, total_samples=total, switch_sample=switch, trace_decimation=1)
        traces, summary = run_experiment(config)
        assert not summary.failures, f"seed {seed}: {summary.failures}"
        labels = [trace.label for trace in traces]
        power = power + 10.0 ** (np.array([trace.values for trace in traces]) / 10.0)
        for block, plain in FIG3_PAIRS:
            for segment in (0, 1):
                own, other = (summary.row(label, segment).time_to_threshold for label in (block, plain))
                wins[block, segment] += own is not None and (other is None or own < other)
    elapsed = time.perf_counter() - start
    ttm, steady = {}, {}
    for label, curve in zip(labels, 10.0 * np.log10(power / len(FIG3_ENSEMBLE_SEEDS))):
        for segment, values in enumerate((curve[:switch], curve[switch:])):
            hits = np.flatnonzero(values <= THRESHOLD_DB)
            ttm[label, segment] = int(hits[0]) if hits.size else math.inf
            steady[label, segment] = float(np.mean(values[-(values.size // 10) :]))
    margins = {
        (block, segment): 1.0 - ttm[block, segment] / ttm[plain, segment]
        for block, plain in FIG3_PAIRS
        for segment in (0, 1)
    }
    gaps = [abs(steady["BS-MPAPA(P=32)", s] - steady["BS-PAPA(P=32)", s]) for s in (0, 1)]
    ok = all(margin > 0.0 for margin in margins.values()) and max(gaps) <= 2.0
    k = len(FIG3_ENSEMBLE_SEEDS)
    leads = "; ".join(
        f"segment {segment}: {block} {ttm[block, segment]} leads {plain} {ttm[plain, segment]} "
        f"by {margins[block, segment]:.1%}, per seed {wins[block, segment]}/{k}"
        for segment in (0, 1)
        for block, plain in FIG3_PAIRS
    )
    _report(
        "6e",
        "algorithm orderings over a seed ensemble",
        ok,
        f"K={k} seeds {FIG3_ENSEMBLE_SEEDS.start}-{FIG3_ENSEMBLE_SEEDS.stop - 1}, averaged times to -15 dB; "
        f"{leads}; memory steady-state gaps {[round(gap, 3) for gap in gaps]} dB; {elapsed:.0f}s",
    )


# Scenario seeds of the gain-mass check.  Disjoint from every seed above and
# from every seed in BENCH_*.json.
GAIN_MASS_SEEDS = range(7001, 7005)
GAIN_MASS_CHECKPOINTS = (1000, 2000, 3999, 4250, 4500, 6000, 7999)
NEW_CLUSTER = slice(768, 800)  # taps 769-800, active from the switch on


def test_criterion_6m_gain_mass_on_the_true_clusters():
    """The paper's mechanism: block-proportionate gains concentrate on the active clusters.

    fig3's PAPA, MPAPA, BS-PAPA(P=32) and BS-MPAPA(P=32) stream 8000 samples,
    the switch at 4000, through ``AdaptiveFilter``.  After each checkpoint
    sample, the share of the expanded ``variant_gains`` on the active segment's
    support is averaged over the seeds.  From sample 1000 on in each segment,
    each block-sparse row must lead each per-tap row by at least 0.1 (before
    sample 1000 the block-sparse rows still trail).  The share on the new
    cluster alone is reported after the switch.
    """
    per_tap, block = ("PAPA", "MPAPA"), ("BS-PAPA(P=32)", "BS-MPAPA(P=32)")
    total, switch = 8000, 4000
    start = time.perf_counter()
    share = {(label, n): 0.0 for label in per_tap + block for n in GAIN_MASS_CHECKPOINTS}
    new = dict(share)
    for seed in GAIN_MASS_SEEDS:
        config = preset_config("fig3", seed=seed, total_samples=total, switch_sample=switch)
        x, d = synthesize_scenario(config.scenario)
        masks = [(end, response.support_mask()) for _, end, response in config.scenario.segments()]
        configs = dict(config.panel)
        for label in per_tap + block:
            filt = AdaptiveFilter(configs[label])
            for n in range(total):
                filt.process(x[n], d[n])
                if n in GAIN_MASS_CHECKPOINTS:
                    gains = variant_gains(configs[label], filt.weights).expand()
                    mask = next(mask for end, mask in masks if n < end)
                    share[label, n] += float(gains[mask].sum() / gains.sum()) / len(GAIN_MASS_SEEDS)
                    new[label, n] += float(gains[NEW_CLUSTER].sum() / gains.sum()) / len(GAIN_MASS_SEEDS)
    elapsed = time.perf_counter() - start
    gaps = {n: min(share[b, n] for b in block) - max(share[p, n] for p in per_tap) for n in GAIN_MASS_CHECKPOINTS}
    tightest = min(gaps, key=gaps.get)
    rows = "; ".join(
        f"{label} {'/'.join(f'{share[label, n]:.2f}' for n in GAIN_MASS_CHECKPOINTS)}, new cluster "
        f"{'/'.join(f'{new[label, n]:.2f}' for n in GAIN_MASS_CHECKPOINTS if n >= switch)}"
        for label in per_tap + block
    )
    k = len(GAIN_MASS_SEEDS)
    _report(
        "6m",
        "gain mass on the true clusters",
        all(gap >= 0.1 for gap in gaps.values()),
        f"K={k} seeds {GAIN_MASS_SEEDS.start}-{GAIN_MASS_SEEDS.stop - 1}, support shares at samples "
        f"{list(GAIN_MASS_CHECKPOINTS)}: {rows}; smallest lead {gaps[tightest]:.2f} at sample {tightest}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_noiseless_sanity():
    from bspapa import EchoScenario, ExperimentConfig, make_block_sparse_ir, run_experiment

    target = make_block_sparse_ir(64, [(13, 14), (45, 46)], seed=71)
    scenario = EchoScenario(
        schedule=((0, target),),
        excitation="white",
        pole=None,
        snr_db=None,
        seed=72,
        total_samples=5000,
    )

    def cfg(variant, order, group=None):
        return FilterConfig(variant, 64, order, group, step_size=0.5, regularization=0.01)

    panel = [
        ("APA", cfg("apa", 4)),
        ("PAPA", cfg("papa", 4)),
        ("BS-PAPA(P=8)", cfg("bs-papa", 4, 8)),
        ("MPAPA", cfg("mpapa", 4)),
        ("BS-MPAPA(P=8)", cfg("bs-mpapa", 4, 8)),
        ("PNLMS", cfg("pnlms", 1)),
        ("BS-PNLMS(P=8)", cfg("bs-pnlms", 1, 8)),
    ]
    traces, summary = run_experiment(
        ExperimentConfig(scenario=scenario, panel=panel, trace_decimation=1)
    )
    assert not summary.failures, f"noiseless runs failed: {summary.failures}"
    first_hit = {}
    for trace in traces:
        hits = np.nonzero(trace.values <= -40.0)[0]
        first_hit[trace.label] = int(hits[0]) if hits.size else None
    ok = all(hit is not None for hit in first_hit.values())
    _report(7, "noiseless convergence", ok, f"first sample at -40 dB: {first_hit}")


def test_criterion_8_preset_determinism(fig3_artifacts, tmp_path):
    first_traces, first_summary, _ = fig3_artifacts
    repeat = tmp_path / "fig3_again.csv"
    rc = cli_main(["preset", "fig3", "--out", str(repeat)])
    assert rc == 0
    same_traces = repeat.read_bytes() == first_traces.read_bytes()
    same_summary = (
        tmp_path / "fig3_again.csv.summary.csv"
    ).read_bytes() == first_summary.read_bytes()
    ok = same_traces and same_summary
    _report(
        8,
        "preset determinism",
        ok,
        f"trace bytes identical: {same_traces}, summary bytes identical: {same_summary}",
    )

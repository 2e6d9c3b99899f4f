"""The production step against the references in ``oracles``.

The strided views and the direct LAPACK calls must reproduce the earlier
sliding-window and ``lu_factor``/``lu_solve`` constructions bit for bit, and
every variant must follow the paper's dense update equations to rounding.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspapa import (
    VARIANTS,
    AdaptiveFilter,
    BlockPartition,
    EchoScenario,
    ExperimentConfig,
    FilterConfig,
    FilterState,
    GainVector,
    RegressorHistory,
    build_weighted_regressor_efficient,
    filter_step,
    gen_excitation,
    make_block_sparse_ir,
    misalignment_db,
    run_experiment,
    solve_regularized,
    synthesize_scenario,
)
from bspapa import filters, kernel
from bspapa.gains import _floored_gains
from oracles import (
    dense_gap,
    reference_efficient_build,
    ReferenceState,
    reference_filter_step,
    reference_regressor_matrix,
    reduction_gaps,
    reference_solve,
)

# (L, M, P): a typical block layout, the order-one window, and one block
# spanning the whole filter.
SHAPES = [(64, 4, 8), (64, 1, 8), (32, 3, 32)]


def variant_config(variant, L, M, P, **params):
    """``variant`` at the given shape, with the pins its name implies."""
    order = 1 if variant in ("pnlms", "bs-pnlms") else M
    group = P if variant.startswith("bs-") else None
    return FilterConfig(variant, L, order, group, **params)


@pytest.mark.parametrize("L,M,P", SHAPES)
def test_views_match_sliding_window_constructions(L, M, P):
    rng = np.random.default_rng(L * 100 + M * 10 + P)
    history = RegressorHistory(L, M)
    part = BlockPartition(L, P)
    span = L + M - 1
    for _ in range(2 * span + 7):  # wraps the ring buffer more than twice
        history.push(rng.standard_normal())
        view = history.regressor_matrix()
        expected = reference_regressor_matrix(history)
        assert np.array_equal(view, expected)
        # BLAS layout: unit stride along the taps, leading stride >= L
        assert view.strides[0] == view.itemsize and view.strides[1] >= L * view.itemsize
        assert not view.flags.writeable
        gains = GainVector(rng.uniform(0.01, 3.0, part.block_count), part)
        built = build_weighted_regressor_efficient(gains, history).matrix
        reference = reference_efficient_build(gains.block_gains, P, history)
        assert np.array_equal(built, reference)
        assert built.strides == reference.strides


@pytest.mark.parametrize("order", [1, 2, 4, 8])
def test_solve_matches_lu_wrappers(order):
    rng = np.random.default_rng(order)
    for _ in range(50):
        a = rng.standard_normal((order, order))
        b = rng.standard_normal(order)
        delta = float(rng.uniform(0.0, 1.0))
        assert np.array_equal(solve_regularized(a, delta, b), reference_solve(a, delta, b))


@pytest.mark.parametrize("L,M,P", SHAPES)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("build", ["efficient", "direct"])
def test_filter_step_bit_identical_to_reference(variant, L, M, P, build):
    cfg = variant_config(variant, L, M, P, step_size=0.3, regularization=0.01)
    rng = np.random.default_rng(7)
    target = rng.standard_normal(L) * (rng.uniform(size=L) < 0.2)
    x = rng.standard_normal(300)
    d = np.convolve(x, target)[:300] + 1e-3 * rng.standard_normal(300)
    history = RegressorHistory(L, cfg.projection_order)
    state, ref_state = FilterState.initial(cfg), ReferenceState(cfg)
    desired = np.zeros(cfg.projection_order)
    for n in range(300):
        history.push(x[n])
        desired[1:] = desired[:-1]
        desired[0] = d[n]
        filter_step(cfg, state, history, desired)
        reference_filter_step(cfg, ref_state, history, desired, build)
    assert np.array_equal(state.weights, ref_state.weights)
    assert np.any(state.weights != 0.0)


def run_against_dense(cfg, steps, seed):
    """Largest weight gap to the dense reference over a whole trajectory."""
    rng = np.random.default_rng(seed)
    L = cfg.filter_length
    target = np.zeros(L)
    target[L // 4 : L // 4 + 4] = rng.standard_normal(4)
    x = rng.standard_normal(steps)
    d = np.convolve(x, target)[:steps] + 1e-3 * rng.standard_normal(steps)
    return dense_gap(cfg, cfg, x, d)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_follows_dense_paper_equations(variant):
    cfg = variant_config(variant, 64, 4, 8, step_size=0.5, regularization=0.01)
    gap, weights = run_against_dense(cfg, 200, seed=3)
    assert gap <= 1e-9
    assert np.linalg.norm(weights) > 0.1  # the run actually adapted


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    variant=st.sampled_from(VARIANTS),
    M=st.integers(1, 6),
    P=st.sampled_from([1, 2, 4, 8, 16, 64]),
    mu=st.floats(0.05, 1.0),
    delta=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**16),
)
def test_dense_paper_equations_over_random_parameters(variant, M, P, mu, delta, seed):
    cfg = variant_config(variant, 64, M, P, step_size=mu, regularization=delta)
    gap, weights = run_against_dense(cfg, 200, seed)
    assert gap <= 1e-9 * max(1.0, float(np.max(np.abs(weights))))


def test_reduction_check_catches_a_squared_one_tap_gain(monkeypatch):
    """Criterion 1 fails when one-tap groupings weigh taps by w*w, not |w|."""
    original = kernel._block_gains

    def squared(config, weights, *buffers):
        if config.group_size == 1 and config.block_count > 1:
            return _floored_gains(weights * weights, config.guards)
        return original(config, weights, *buffers)

    monkeypatch.setattr(kernel, "_block_gains", squared)
    gaps = reduction_gaps()
    assert all(gaps[name] > 1e-10 for name in ("papa", "pnlms", "mpapa")), gaps
    assert all(gaps[name] <= 1e-10 for name in ("apa", "bs-pnlms")), gaps


def scalar_gap(cfg, steps=300, seed=11):
    """Largest gap between ``AdaptiveFilter.process``, a ``filter_step`` loop and
    ``reference_filter_step`` over one stream, and the final weights."""
    rng = np.random.default_rng(seed)
    L = cfg.filter_length
    target = rng.standard_normal(L) * (rng.uniform(size=L) < 0.05)
    x = rng.standard_normal(steps)
    d = np.convolve(x, target)[:steps] + 1e-3 * rng.standard_normal(steps)
    filt, history = AdaptiveFilter(cfg), RegressorHistory(L, 1)
    state, ref_state = FilterState.initial(cfg), ReferenceState(cfg)
    gap = 0.0
    for n in range(steps):
        filt.process(x[n], d[n])
        history.push(x[n])
        filter_step(cfg, state, history, d[n : n + 1])
        reference_filter_step(cfg, ref_state, history, d[n : n + 1])
        gap = max(gap, float(np.max(np.abs(filt.weights - ref_state.weights))),
                  float(np.max(np.abs(state.weights - ref_state.weights))))
    return gap, filt.weights


@pytest.mark.parametrize("L", [64, 1024])
@pytest.mark.parametrize("group", [None, 2, 4, 32, "L"])
def test_scalar_rows_bit_identical_to_reference(L, group):
    """PNLMS and BS-PNLMS with P in {2, 4, 32, L}: the streaming, validating and
    reference steps agree exactly, past a wrap of the input ring."""
    variant = "pnlms" if group is None else "bs-pnlms"
    cfg = FilterConfig(variant, L, group_size=L if group == "L" else group, step_size=0.4)
    gap, weights = scalar_gap(cfg, steps=L + 200)
    assert gap == 0.0
    assert np.any(weights != 0.0)


def test_oracle_comparison_catches_a_squared_one_tap_gain_in_scalar_rows(monkeypatch):
    """The scalar rows take their gains from ``kernel._block_gains``: weighing
    one-tap blocks by w*w there, not |w|, moves PNLMS off the oracle."""
    cfg = FilterConfig("pnlms", 64, step_size=0.4)
    assert scalar_gap(cfg)[0] == 0.0
    original = kernel._block_gains

    def squared(config, weights, *buffers):
        if config.group_size == 1 and config.block_count > 1:
            return _floored_gains(weights * weights, config.guards)
        return original(config, weights, *buffers)

    monkeypatch.setattr(kernel, "_block_gains", squared)
    assert scalar_gap(cfg)[0] > 1e-6


# The rows of the batch tests at M = 16: a unit-gain row, which is X(n) itself, one-tap,
# P=4 and P=64 rows weighted in place (P=64 sums in a recursive batch), and memory rows,
# one-tap and P=64.
BOTH_BUILDS = [("apa", 1024), ("papa", 1), ("bs-papa", 4), ("bs-papa", 64), ("mpapa", 1), ("bs-mpapa", 64)]


def test_batch_with_both_builds_equals_solo_runs_and_reference():
    """At M = ``kernel._SUM_FROM`` a six-entry batch of full products, built
    as a ``FilterState`` builds its batch of one, weights X(n) in place for
    every gained row, the P=64 row too, and reads X(n) itself for the
    unit-gain row.  It equals each solo run and the reference step exactly,
    past a wrap of the memory rings."""
    L, M, steps = 1024, kernel._SUM_FROM, 120
    members = BOTH_BUILDS
    configs = [variant_config(v, L, M, P, step_size=0.3) for v, P in members]
    [(indices, panel_batch)] = kernel._panel_batches(configs)
    assert panel_batch.recursive  # run_experiment's batch there takes the recursions; see below
    rows = [configs[k] for k in indices]
    batch = kernel._Batch(rows, np.zeros((len(rows), L)), np.zeros((2, 2 * M, L)))
    assert [c.group_size for c, *_ in batch._in_place] == [1, 4, 64]
    solo = [AdaptiveFilter(cfg) for cfg in configs]
    refs = [ReferenceState(cfg) for cfg in configs]
    rng = np.random.default_rng(31)
    target = rng.standard_normal(L) * (rng.uniform(size=L) < 0.02)
    x = rng.standard_normal(steps)
    d = np.convolve(x, target)[:steps] + 1e-3 * rng.standard_normal(steps)
    history, desired = RegressorHistory(L, M), np.zeros(M)
    for n in range(steps):
        history.push(x[n])
        desired[1:] = desired[:-1]
        desired[0] = d[n]
        prior, failed = batch.step(history, desired)
        assert not failed
        for b, k in enumerate(indices):
            assert prior[b] == solo[k].process(x[n], d[n])
            reference_filter_step(configs[k], refs[k], history, desired)
    for b, k in enumerate(indices):
        assert np.array_equal(batch.weights[b], solo[k].weights), members[k]
        assert np.array_equal(batch.weights[b], refs[k].weights), members[k]
        assert np.any(batch.weights[b] != 0.0)


def test_recursive_panel_batch_equals_the_reference_and_its_one_entry_runs():
    """From ``kernel._RECURSE_FROM`` on, a panel's batch takes the fast affine
    projection recursions.  Past a wrap of the memory rings, each of its rows
    equals the recursive reference step bit for bit, its weights row and the
    weights it forms (the unit-gain row's are fictitious), and the misalignment
    of those equals its entry's one-entry ``run_experiment`` bit for bit, or
    for the unit-gain row, whose stream reads it from its errors, to 1e-9 dB.
    A delta=0 unit-gain row, singular at sample 0, fails there as in its
    one-entry run, and the batch it leaves carries the others' recursion state
    on.  The bs-papa rows of P=64 and P=16 sum their block correlations."""
    L, M, steps = 1024, kernel._RECURSE_FROM, 40
    configs = [variant_config(v, L, M, P, step_size=0.3) for v, P in BOTH_BUILDS]
    configs.append(variant_config("apa", L, M, L, step_size=0.3, regularization=0.0))
    configs.append(variant_config("bs-papa", L, M, 16, step_size=0.3))
    [(rows, batch)] = kernel._panel_batches(configs)
    assert batch.recursive and rows == [1, 2, 3, 7, 0, 6, 4, 5]
    assert [c.group_size for c, *_ in batch._in_place] == [1, 4]
    assert [group for group, *_ in batch._summed] == [64, 16]
    assert batch._lag_groups == [16, 32, 64] and len(batch._memory_sums) == 1  # apa: P = 32
    response = make_block_sparse_ir(L, [(1, 24)], seed=5)
    sc = EchoScenario(schedule=((0, response),), total_samples=steps, seed=9)
    x, d = synthesize_scenario(sc)
    solo = [run_experiment(ExperimentConfig(scenario=sc, panel=[(str(k), cfg)], trace_decimation=1))
            for k, cfg in enumerate(configs)]
    refs = [ReferenceState(cfg) for cfg in configs]
    history, desired = RegressorHistory(L, M), np.zeros(M)
    for n in range(steps):
        history.push(x[n])
        desired[1:] = desired[:-1]
        desired[0] = d[n]
        _, failed = batch.step(history, desired)
        formed = batch.formed(history)
        for b, k in enumerate(rows):
            if b in failed:
                traces, summary = solo[k]
                assert not traces and summary.failures == {str(k): f"aborted at sample {n}: {failed[b]}"}
                with pytest.raises(np.linalg.LinAlgError), warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # scipy's lu_factor warns of the exact zero
                    reference_filter_step(configs[k], refs[k], history, desired, recursive=True)
                continue
            reference_filter_step(configs[k], refs[k], history, desired, recursive=True)
            assert np.array_equal(batch.weights[b], refs[k].weights), (n, k)
            assert np.array_equal(formed[b], refs[k].formed(history)), (n, k)
            streamed, exact = solo[k][0][0].values[n], misalignment_db(response.taps, formed[b])
            if b in range(*batch.units):
                assert abs(streamed - exact) <= 1e-9, (n, k)
            else:
                assert streamed == exact, (n, k)
        if failed:
            rows = [k for b, k in enumerate(rows) if b not in failed]
            batch = batch.without(failed)
    assert sorted(rows) == [0, 1, 2, 3, 4, 5, 7]  # only the delta=0 row failed
    assert all(np.any(w != 0.0) for w in batch.weights)


@pytest.mark.parametrize("M", [kernel._RECURSE_FROM, 20])
def test_summed_rows_equal_the_reference_past_wraps_of_their_lag_rings(M):
    """A recursive batch's bs-papa rows with P and M from ``kernel._SUM_FROM``
    on read a ring of L + M - 1 lag vectors, one per group size, which the
    unit-gain row (P = 8) and the bs-mpapa row (P = 16) read too.  Past three
    wraps of it, beside an in-place row, each row equals the recursive
    reference step bit for bit."""
    L = 64
    configs = [variant_config(v, L, M, P, step_size=0.3) for v, P in
               (("bs-papa", 16), ("papa", 1), ("bs-papa", 32), ("apa", L), ("bs-mpapa", 16))]
    [(rows, batch)] = kernel._panel_batches(configs)
    assert batch.recursive and rows == [1, 0, 2, 3, 4]
    assert [group for group, *_ in batch._summed] == [16, 32] and batch._lag_groups == [8, 16, 32]
    refs = [ReferenceState(cfg) for cfg in configs]
    rng = np.random.default_rng(M)
    target = rng.standard_normal(L) * (rng.uniform(size=L) < 0.2)
    x = gen_excitation(3 * (L + M), 23, "ar1", 0.8)
    d = np.convolve(x, target)[: x.size]
    history, desired = RegressorHistory(L, M), np.zeros(M)
    for n in range(x.size):
        history.push(x[n])
        desired[1:] = desired[:-1]
        desired[0] = d[n]
        assert not batch.step(history, desired)[1]
        formed = batch.formed(history)
        for b, k in enumerate(rows):
            reference_filter_step(configs[k], refs[k], history, desired, recursive=True)
            assert np.array_equal(batch.weights[b], refs[k].weights), (n, k)
            assert np.array_equal(formed[b], refs[k].formed(history)), (n, k)
    assert all(np.any(w != 0.0) for w in batch.weights)


@pytest.mark.parametrize("L", [32, 31])
def test_a_failed_recursive_row_keeps_its_errors_and_steps_on(L):
    """A row whose system failed keeps its weights, so its a-posteriori errors are
    its a-priori ones.  Stepped on, a delta=0 unit-gain row fails while its window
    fills (its Gram matrix has rank n + 1 at sample n), then adapts exactly as the
    recursive reference step does, its fictitious weights and the weights it forms
    alike.  It sums lag vectors, P = 4 at L = 32 and P = 1 at the prime L = 31."""
    M = kernel._RECURSE_FROM
    cfg = FilterConfig("apa", L, M, step_size=0.3, regularization=0.0)
    [(_, batch)] = kernel._panel_batches([cfg])
    assert batch._lag_groups == ([4] if L == 32 else [1])
    ref_state, rng = ReferenceState(cfg), np.random.default_rng(41)
    history, desired, failures = RegressorHistory(L, M), np.zeros(M), []
    for n in range(3 * M):
        history.push(rng.standard_normal())
        desired[1:] = desired[:-1]
        desired[0] = rng.standard_normal()
        failures.append(bool(batch.step(history, desired)[1]))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy's lu_factor warns of an exact zero
                reference_filter_step(cfg, ref_state, history, desired, recursive=True)
        except np.linalg.LinAlgError:
            assert failures[-1], n
        assert np.array_equal(batch.weights[0], ref_state.weights), n
        assert np.array_equal(batch.formed(history)[0], ref_state.formed(history)), n
    assert failures == [True] * (M - 1) + [False] * (2 * M + 1)
    assert np.any(batch.weights != 0.0)


@pytest.mark.parametrize("order", [kernel._RECURSE_FROM - 1, kernel._RECURSE_FROM])
@pytest.mark.parametrize("variant,group", [("apa", None), ("mpapa", None), ("bs-mpapa", 8)])
def test_filter_step_keeps_full_products_after_an_in_place_weight_edit(variant, group, order):
    """``filter_step`` forms every product at every order, so a weight edit made
    in place between calls, which its batch of one cannot see, leaves it equal
    to the full-product reference.  ``_panel_batches`` takes the recursions
    exactly from ``kernel._RECURSE_FROM`` on, one order on each side."""
    L = 32
    cfg = FilterConfig(variant, L, order, group_size=group, step_size=0.3)
    [(_, batch)] = kernel._panel_batches([cfg])
    assert batch.recursive == (order >= kernel._RECURSE_FROM)
    rng = np.random.default_rng(order)
    history, desired = RegressorHistory(L, order), np.zeros(order)
    state, ref_state = FilterState.initial(cfg), ReferenceState(cfg)
    for n in range(3 * order):
        if n % 7 == 6:
            state.weights[::3] += 0.05  # in place: the same array object
            ref_state.weights[::3] += 0.05
        history.push(rng.standard_normal())
        desired[1:] = desired[:-1]
        desired[0] = rng.standard_normal()
        filter_step(cfg, state, history, desired)
        reference_filter_step(cfg, ref_state, history, desired)
        assert np.array_equal(state.weights, ref_state.weights), n


def test_the_recursions_drift_from_the_full_products_within_their_bound():
    """The recursions' drift check: a recursive panel batch of bs-papa (P=16,
    summed), apa, mpapa and bs-mpapa at M = ``kernel._RECURSE_FROM`` against
    ``filter_step``, which forms every product, over 60 000 samples of AR(1)
    input.  Each error and Gram entry the recursions carry lives at most M
    steps, and each summed Gram entry is a fresh sum of lag products, so nothing
    may accumulate: the largest gap of the weights the batch forms (apa's from
    its fictitious weights) stays within ``BOUND`` times the largest weight, at
    every sample."""
    BOUND = 1e-10  # stated before measuring; gaps of 2e-14 to 3e-12 were seen over 1500 steps
    L, M, steps = 64, kernel._RECURSE_FROM, 60000
    configs = [FilterConfig(v, L, M, group_size=g, step_size=0.2)
               for v, g in (("bs-papa", 16), ("apa", None), ("mpapa", None), ("bs-mpapa", 8))]
    [(rows, batch)] = kernel._panel_batches(configs)
    assert batch.recursive and rows == [0, 1, 2, 3] and len(batch._summed) == 1
    assert batch._lag_groups == [8, 16] and not batch._memory_sums  # mpapa, bs-mpapa P=8 keep their gemvs
    states = [FilterState.initial(cfg) for cfg in configs]
    full = np.stack([state.weights for state in states])
    for k, state in enumerate(states):
        state.weights = full[k]  # filter_step follows the rebound view
    response = make_block_sparse_ir(L, [(5, 12)], seed=3)
    x = gen_excitation(steps, 17, "ar1", 0.8)
    d = np.convolve(x, response.taps)[:steps] + 1e-3 * np.random.default_rng(19).standard_normal(steps)
    history, desired = RegressorHistory(L, M), np.zeros(M)
    worst = 0.0
    for n in range(steps):
        history.push(x[n])
        desired[1:] = desired[:-1]
        desired[0] = d[n]
        assert not batch.step(history, desired)[1]
        for cfg, state in zip(configs, states):
            filter_step(cfg, state, history, desired)
        formed = batch.formed(history)
        worst = max(worst, float(np.max(np.abs(formed - full))) / float(np.max(np.abs(full))))
    print(f"[drift] largest relative weight gap over {steps} samples: {worst:.2e}")
    assert worst <= BOUND
    assert float(np.max(np.abs(full[0] - response.taps))) < 0.05  # the filters converged


def test_a_summing_memory_row_holds_to_the_full_products():
    """A summing memory row, the row kind of long-echo's BS-MPAPA(P=64), against
    ``filter_step``'s full products: a recursive batch of one bs-mpapa row (P=16) at
    (64, 16), whose Gram row and column 0 are sums of lag vectors and gains from its ring,
    over 20 000 samples of AR(1) input (pole 0.8), mu = 0.2, noise 1e-3.  From sample
    ``SETTLED`` on, past the start-up transient, the weights the batch forms stay within
    ``BOUND`` times the largest weight; the transient's gap is held to its own bound."""
    BOUND, TRANSIENT, SETTLED = 1e-10, 1e-6, 2500  # stated before the test first ran
    L, M, steps = 64, kernel._RECURSE_FROM, 20000
    cfg = FilterConfig("bs-mpapa", L, M, group_size=16, step_size=0.2)
    [(_, batch)] = kernel._panel_batches([cfg])
    assert batch.recursive and len(batch._memory_sums) == 1 and batch._lag_groups == [16]
    state = FilterState.initial(cfg)
    response = make_block_sparse_ir(L, [(L // 8, L // 8 + L // 4 - 1)], seed=3)
    x = gen_excitation(steps, 17, "ar1", 0.8)
    d = np.convolve(x, response.taps)[:steps] + 1e-3 * np.random.default_rng(19).standard_normal(steps)
    history, desired, gaps = RegressorHistory(L, M), np.zeros(M), np.empty(steps)
    for n in range(steps):
        history.push(x[n])
        desired[1:] = desired[:-1]
        desired[0] = d[n]
        assert not batch.step(history, desired)[1]
        filter_step(cfg, state, history, desired)
        gaps[n] = float(np.max(np.abs(batch.formed(history)[0] - state.weights))) / float(np.max(np.abs(state.weights)))
    print(f"[summing memory] transient gap {gaps[:SETTLED].max():.2e}, settled {gaps[SETTLED:].max():.2e}")
    assert gaps[:SETTLED].max() <= TRANSIENT
    assert gaps[SETTLED:].max() <= BOUND
    assert float(np.max(np.abs(state.weights - response.taps))) < 0.05  # the filter converged


# Every row run of a recursive batch, by shape: a prime L (its unit-gain row sums lag group 1)
# with an odd M, and two composite L with built, summed, unit-gain (lag group 8), memory rows with
# gemvs and summing memory rows.
SWEEP = {
    (61, 17): [("papa", None), ("apa", None), ("mpapa", None)],
    (64, 16): [("bs-papa", 4), ("bs-papa", 16), ("apa", None), ("mpapa", None), ("bs-mpapa", 16)],
    (96, 24): [("bs-papa", 8), ("bs-papa", 32), ("bs-papa", 96), ("mpapa", None), ("bs-mpapa", 32)],
}


def _sweep_configs(shape, step_size):
    L, M = shape
    return [variant_config(v, L, M, P, step_size=step_size) for v, P in SWEEP[shape]]


def _gram_rows(batch) -> list:
    """Every row's Gram row 0 at the last step: a unit-gain row's is c(n), formed ahead."""
    lo, hi = batch.units
    return [batch._c if lo <= b < hi else batch._grams[b, 0] for b in range(len(batch.configs))]


@pytest.mark.parametrize("shape", list(SWEEP))
def test_a_batch_given_the_stream_equals_one_stepped_on_its_history(shape):
    """A recursive batch given the stream (``segment``) forms the work that reads only the
    input ``kernel._BLOCK`` samples ahead; the same batch stepped on its history alone forms it
    one sample ahead, through the same code.  Past three wraps of the lag ring, over many block
    boundaries and through two ``without()`` calls inside a block, the two give equal a-priori
    errors, weights, formed weights, a-posteriori errors, Gram rows 0 and failures at every
    sample, bit for bit.  A delta=0 unit-gain row fails over a silent lead-in and again over a
    silent stretch, inside blocks, each time at its own sample and with the message and pivot
    that ``solve_regularized`` gives for the recursive reference's Gram matrix."""
    L, M = shape
    configs = _sweep_configs(shape, 0.3) + [FilterConfig("apa", L, M, step_size=0.3, regularization=0.0)]
    doomed = len(configs) - 1
    [(rows, streamed)], [(_, stepped)] = kernel._panel_batches(configs), kernel._panel_batches(configs)
    assert streamed.recursive and streamed.units[1] - streamed.units[0] == 2
    steps = 3 * streamed._slots + 40  # past three wraps of the lag ring
    response = make_block_sparse_ir(L, [(L // 8, L // 8 + L // 4 - 1)], seed=3)
    x = gen_excitation(steps, 13, "ar1", 0.8)
    x[:70] = x[300 : 300 + L + 20] = 0.0  # the silent lead-in crosses a block boundary
    d = np.convolve(x, response.taps)[:steps] + 1e-3 * np.random.default_rng(19).standard_normal(steps)
    streamed.segment(x, d, 0, steps, response.taps)
    oracle = ReferenceState(configs[doomed])
    history, desired, failures = RegressorHistory(L, M), np.zeros(M), []
    for n in range(steps):
        history.push(x[n])
        desired[1:] = desired[:-1]
        desired[0] = d[n]
        (prior, failed), (prior_one, failed_one) = streamed.step(history, desired), stepped.step(history, desired)
        assert prior == prior_one, n
        assert [(b, str(e), e.pivot) for b, e in failed.items()] == [
            (b, str(e), e.pivot) for b, e in failed_one.items()], n
        for a, b in ((streamed.weights, stepped.weights), (streamed.formed(history), stepped.formed(history)),
                     (streamed._eps, stepped._eps), (_gram_rows(streamed), _gram_rows(stepped))):
            assert np.array_equal(a, b), n
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy's lu_factor warns of an exact zero
                reference_filter_step(configs[doomed], oracle, history, desired, recursive=True)
        except np.linalg.LinAlgError:
            pass
        b = rows.index(doomed)
        try:
            solve_regularized(oracle.gram, 0.0, np.ones(M))
        except filters.SingularSystemError as exc:
            assert (str(failed[b]), failed[b].pivot) == (str(exc), exc.pivot), n
            failures.append(n)
        else:
            assert b not in failed, n
        assert set(failed) <= {b}, n
        if n in (5, 333):  # inside a block: the built row, then the memory row with gemvs
            gone = [rows.index(0 if n == 5 else SWEEP[shape].index(("mpapa", None)))]
            rows = [k for i, k in enumerate(rows) if i not in gone]
            streamed, stepped = streamed.without(gone), stepped.without(gone)
    assert failures[0] == 0 and any(n % kernel._BLOCK for n in failures) and max(failures) > 300
    assert streamed._formed == steps and stepped._formed == steps


@pytest.mark.parametrize("shape", list(SWEEP))
def test_every_recursive_row_run_holds_to_the_full_products(shape):
    """Every row run of a recursive batch given the stream, against ``filter_step``'s full
    products: built, summed, unit-gain (lag group 1 at the prime L, 8 above), memory rows with
    gemvs and summing memory rows, over 4000 samples (7000 at M = 24) of AR(1) input (pole 0.8), mu = 0.2,
    noise 1e-3, past three wraps of the lag and memory rings, with the built row leaving by
    ``without()`` inside a block at sample 1000.  From sample ``SETTLED`` on, past the start-up
    transient, each row's formed weights stay within ``BOUND`` times its largest weight; the
    transient's gap is held to its own bound and printed apart."""
    # Stated before the test first ran.  BOUND: the start-up readings of mpapa at (64, 16) were
    # still 1.2e-10 over samples 2500-5000 on this stream; TRANSIENT: its peak read 6.6e-3.
    BOUND, TRANSIENT = 1e-9, 1e-1
    L, M = shape
    # The first run read 1.2e-8 over samples 2500-4000 for mpapa at (96, 24): there the transient's
    # gap decays geometrically, about 20 times every 600 samples, from 5.8e-2 at its peak to 1.7e-8
    # at 2500 and below 5e-15 from 5400 on, so at M = 24 the transient ends later.
    SETTLED, steps = (6000, 7000) if M == 24 else (2500, 4000)
    configs = _sweep_configs(shape, 0.2)
    [(rows, batch)] = kernel._panel_batches(configs)
    assert batch.recursive
    states = [FilterState.initial(cfg) for cfg in configs]
    response = make_block_sparse_ir(L, [(L // 8, L // 8 + L // 4 - 1)], seed=3)
    x = gen_excitation(steps, 17, "ar1", 0.8)
    d = np.convolve(x, response.taps)[:steps] + 1e-3 * np.random.default_rng(19).standard_normal(steps)
    batch.segment(x, d, 0, steps, response.taps)
    history, desired, gaps = RegressorHistory(L, M), np.zeros(M), np.zeros((len(configs), steps))
    for n in range(steps):
        history.push(x[n])
        desired[1:] = desired[:-1]
        desired[0] = d[n]
        assert not batch.step(history, desired)[1]
        formed = batch.formed(history)
        for b, k in enumerate(rows):
            filter_step(configs[k], states[k], history, desired)
            scale = float(np.max(np.abs(states[k].weights)))
            gap = float(np.max(np.abs(formed[b] - states[k].weights)))
            gaps[k, n] = gap / scale if scale else gap
        if n == 1000:
            b = rows.index(0)
            rows, batch = rows[:b] + rows[b + 1 :], batch.without([b])
    for k, (variant, group) in enumerate(SWEEP[shape]):
        settled = f"{gaps[k, SETTLED:].max():.2e}" if k in rows else "none (left at sample 1000)"
        print(f"[{shape} {variant} P={group}] transient gap {gaps[k, :SETTLED].max():.2e}, settled {settled}")
    assert gaps[:, :SETTLED].max() <= TRANSIENT
    assert gaps[:, SETTLED:].max() <= BOUND
    for k in rows:  # every row that stayed converged
        assert float(np.max(np.abs(states[k].weights - response.taps))) < 0.05, SWEEP[shape][k]

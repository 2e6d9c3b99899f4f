"""The production step against the references in ``oracles``.

The strided views and the direct LAPACK calls must reproduce the earlier
sliding-window and ``lu_factor``/``lu_solve`` constructions bit for bit, and
every variant must follow the paper's dense update equations to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspapa import (
    VARIANTS,
    AdaptiveFilter,
    BlockPartition,
    FilterConfig,
    FilterState,
    GainVector,
    RegressorHistory,
    build_weighted_regressor_efficient,
    filter_step,
    solve_regularized,
)
from oracles import (
    DenseReference,
    reference_efficient_build,
    reference_filter_step,
    reference_regressor_matrix,
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
        assert view.strides == expected.strides and not view.flags.writeable
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
    state, ref_state = FilterState.initial(cfg), FilterState.initial(cfg)
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
    filt, dense = AdaptiveFilter(cfg), DenseReference(cfg)
    gap = 0.0
    for n in range(steps):
        filt.process(x[n], d[n])
        dense.process(x[n], d[n])
        gap = max(gap, float(np.max(np.abs(filt.weights - dense.weights))))
    return gap, dense.weights


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

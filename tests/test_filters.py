"""Update engines: regressor handling, builders, solver, and the step itself."""

import numpy as np
import pytest

from bspapa import filters
from bspapa import (
    AdaptiveFilter,
    BlockPartition,
    FilterConfig,
    FilterState,
    GainVector,
    RegressorHistory,
    SingularSystemError,
    StallGuards,
    build_weighted_regressor_direct,
    build_weighted_regressor_efficient,
    filter_step,
    solve_regularized,
    update_memory_regressor,
    variant_gains,
)


def make_history(samples, filter_length, projection_order):
    history = RegressorHistory(filter_length, projection_order)
    history.extend(samples)
    return history


def random_gains(rng, filter_length, group_size):
    part = BlockPartition(filter_length, group_size)
    return GainVector(rng.uniform(0.01, 3.0, part.block_count), part)


def blas_ready(matrix):
    """Whether numpy's matmul can hand ``matrix`` (or its transpose) to BLAS.

    One stride must be one element and the other must step over at least
    the extent of the unit-stride axis.  A matrix failing this falls back
    to numpy's own element loop.
    """
    item = matrix.itemsize
    rows, cols = matrix.strides
    return (cols == item and rows >= matrix.shape[1] * item) or (
        rows == item and cols >= matrix.shape[0] * item
    )


class TestFilterConfig:
    def test_apa_forces_full_block(self):
        cfg = FilterConfig("apa", 64, 4)
        assert cfg.group_size == 64 and cfg.block_count == 1

    @pytest.mark.parametrize("variant", ["papa", "mpapa", "pnlms"])
    def test_per_tap_variants_force_unit_blocks(self, variant):
        order = 1 if variant == "pnlms" else 4
        cfg = FilterConfig(variant, 64, order)
        assert cfg.group_size == 1

    def test_block_variants_require_group_size(self):
        with pytest.raises(ValueError):
            FilterConfig("bs-papa", 64, 4)

    def test_conflicting_group_size_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig("papa", 64, 4, group_size=8)

    def test_pnlms_requires_order_one(self):
        with pytest.raises(ValueError):
            FilterConfig("bs-pnlms", 64, 2, group_size=8)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            FilterConfig("rls", 64, 4)

    def test_step_size_bounds(self):
        FilterConfig("apa", 8, 2, step_size=0.0)  # frozen filter is allowed
        FilterConfig("apa", 8, 2, step_size=2.0)
        with pytest.raises(ValueError):
            FilterConfig("apa", 8, 2, step_size=2.1)
        with pytest.raises(ValueError):
            FilterConfig("apa", 8, 2, step_size=-0.1)

    def test_negative_regularization_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig("apa", 8, 2, regularization=-1e-9)

    def test_indivisible_group_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig("bs-papa", 64, 4, group_size=12)

    def test_multiplication_formulas(self):
        eff = FilterConfig("bs-papa", 1024, 8, 32)
        mem = FilterConfig("bs-mpapa", 1024, 8, 32)
        assert eff.multiplications_per_step == (32 + 8 - 1) * 32 == 1248
        assert mem.multiplications_per_step == 1024


class TestRegressorHistory:
    def test_reads_zero_before_stream_start(self):
        history = RegressorHistory(4, 3)
        np.testing.assert_array_equal(history.window(), np.zeros(6))
        history.push(5.0)
        np.testing.assert_array_equal(history.input_vector(), [5.0, 0.0, 0.0, 0.0])

    def test_newest_first_ordering(self):
        history = make_history([1.0, 2.0, 3.0], 3, 2)
        np.testing.assert_array_equal(history.window(), [3.0, 2.0, 1.0, 0.0])

    def test_regressor_columns_are_delays(self):
        samples = np.arange(1.0, 11.0)
        history = make_history(samples, 4, 3)
        X = history.regressor_matrix()
        assert X.shape == (4, 3)
        np.testing.assert_array_equal(X[:, 0], [10, 9, 8, 7])
        np.testing.assert_array_equal(X[:, 1], [9, 8, 7, 6])
        np.testing.assert_array_equal(X[:, 2], [8, 7, 6, 5])
        np.testing.assert_array_equal(history.input_vector(2), X[:, 2])

    def test_wraps_past_capacity(self):
        history = make_history(np.arange(100.0), 3, 2)
        np.testing.assert_array_equal(history.window(), [99, 98, 97, 96])

    def test_delay_bounds(self):
        history = RegressorHistory(4, 2)
        with pytest.raises(ValueError):
            history.input_vector(2)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            RegressorHistory(0, 1)
        with pytest.raises(ValueError):
            RegressorHistory(4, 0)


class TestRegressorBuilders:
    def test_identity_gains_reproduce_regressor(self):
        rng = np.random.default_rng(3)
        history = make_history(rng.standard_normal(20), 8, 3)
        ones = GainVector(np.ones(4), BlockPartition(8, 2))
        built = build_weighted_regressor_direct(ones, history)
        np.testing.assert_array_equal(built.matrix, history.regressor_matrix())

    def test_zero_gain_annihilates_rows(self):
        rng = np.random.default_rng(4)
        history = make_history(rng.standard_normal(20), 8, 3)
        gains = GainVector(np.array([1.0, 0.0, 0.0, 0.0]), BlockPartition(8, 2))
        built = build_weighted_regressor_direct(gains, history)
        assert np.all(built.matrix[2:, :] == 0.0)
        assert np.any(built.matrix[:2, :] != 0.0)

    def test_direct_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        history = make_history(rng.standard_normal(30), 12, 4)
        gains = random_gains(rng, 12, 3)
        built = build_weighted_regressor_direct(gains, history)
        # oracle: scale each row of the materialized regressor independently
        expected = np.empty((12, 4))
        X = history.regressor_matrix()
        expanded = gains.expand()
        for row in range(12):
            for col in range(4):
                expected[row, col] = expanded[row] * X[row, col]
        np.testing.assert_array_equal(built.matrix, expected)

    @pytest.mark.parametrize("group", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("order", [1, 2, 8])
    def test_efficient_bit_exact(self, group, order):
        rng = np.random.default_rng(group * 100 + order)
        history = make_history(rng.standard_normal(50), 16, order)
        gains = random_gains(rng, 16, group)
        direct = build_weighted_regressor_direct(gains, history)
        efficient = build_weighted_regressor_efficient(gains, history)
        np.testing.assert_array_equal(efficient.matrix, direct.matrix)

    def test_counts(self):
        rng = np.random.default_rng(6)
        history = make_history(rng.standard_normal(1050), 1024, 8)
        gains = random_gains(rng, 1024, 32)
        assert build_weighted_regressor_direct(gains, history).multiplication_count == 8192
        assert build_weighted_regressor_efficient(gains, history).multiplication_count == 1248

    def test_count_order_one_equals_direct(self):
        rng = np.random.default_rng(7)
        history = make_history(rng.standard_normal(70), 64, 1)
        gains = random_gains(rng, 64, 8)
        eff = build_weighted_regressor_efficient(gains, history)
        assert eff.multiplication_count == 64 == 1 * 64

    def test_length_mismatch(self):
        history = RegressorHistory(8, 2)
        gains = GainVector(np.ones(2), BlockPartition(4, 2))
        with pytest.raises(ValueError):
            build_weighted_regressor_efficient(gains, history)

    def test_gram_symmetry_without_memory(self):
        # X.T G X with diagonal G is symmetric up to rounding
        rng = np.random.default_rng(88)
        history = make_history(rng.standard_normal(100), 32, 6)
        gains = random_gains(rng, 32, 8)
        weighted = build_weighted_regressor_efficient(gains, history).matrix
        gram = history.regressor_matrix().T @ weighted
        scale = np.abs(gram).max()
        assert np.abs(gram - gram.T).max() <= 1e-12 * scale


class TestMemoryRegressor:
    def cfg(self, L=8, M=3):
        return FilterConfig("bs-mpapa", L, M, group_size=2)

    def test_first_call_fills_only_first_column(self):
        rng = np.random.default_rng(10)
        cfg = self.cfg()
        state = FilterState.initial(cfg)
        history = make_history(rng.standard_normal(8), 8, 3)
        gains = random_gains(rng, 8, 2)
        mem = update_memory_regressor(state, gains, history.input_vector())
        np.testing.assert_array_equal(mem[:, 0], gains.expand() * history.input_vector())
        np.testing.assert_array_equal(mem[:, 1:], 0.0)

    def test_shift_property(self):
        rng = np.random.default_rng(11)
        cfg = self.cfg()
        state = FilterState.initial(cfg)
        history = RegressorHistory(8, 3)
        history.extend(rng.standard_normal(8))
        gains = random_gains(rng, 8, 2)
        first = update_memory_regressor(state, gains, history.input_vector()).copy()
        history.push(rng.standard_normal())
        second = update_memory_regressor(state, random_gains(rng, 8, 2), history.input_vector())
        np.testing.assert_array_equal(second[:, 1], first[:, 0])

    def test_frozen_gains_match_direct_builder(self):
        # with constant gains the memory recursion rebuilds the exact regressor
        rng = np.random.default_rng(12)
        L, M = 8, 3
        cfg = self.cfg(L, M)
        state = FilterState.initial(cfg)
        history = RegressorHistory(L, M)
        gains = random_gains(rng, L, 2)
        for sample in rng.standard_normal(M + 4):
            history.push(sample)
            mem = update_memory_regressor(state, gains, history.input_vector())
        direct = build_weighted_regressor_direct(gains, history)
        np.testing.assert_array_equal(mem, direct.matrix)

    def test_rejected_without_memory_state(self):
        state = FilterState.initial(FilterConfig("bs-papa", 8, 3, group_size=2))
        gains = GainVector(np.ones(4), BlockPartition(8, 2))
        with pytest.raises(ValueError):
            update_memory_regressor(state, gains, np.zeros(8))

    @pytest.mark.parametrize("taps", [1, 4])
    def test_gains_must_cover_the_ring(self, taps):
        state = FilterState.initial(self.cfg())
        gains = GainVector(np.ones(taps), BlockPartition(taps, 1))
        with pytest.raises(ValueError, match=f"gains cover {taps} taps but .* holds 8"):
            update_memory_regressor(state, gains, np.zeros(8))

    def test_newest_column_always_matches_exact_regressor(self):
        # first column of the memory regressor == first column of G(n-1) X(n)
        rng = np.random.default_rng(13)
        cfg = FilterConfig("bs-mpapa", 8, 3, group_size=4, step_size=0.4)
        filt = AdaptiveFilter(cfg)
        x = rng.standard_normal(40)
        d = rng.standard_normal(40)
        for n in range(40):
            gains = variant_gains(cfg, filt.weights)  # gains before the update
            filt.process(x[n], d[n])
            exact = build_weighted_regressor_direct(gains, filt.history)
            np.testing.assert_array_equal(
                filt.state.memory_regressor[:, 0], exact.matrix[:, 0]
            )

    def test_ring_wraps_like_a_shifted_matrix(self):
        rng = np.random.default_rng(14)
        L, M = 8, 3
        state = FilterState.initial(self.cfg(L, M))
        shifted = np.zeros((L, M))
        for _ in range(2 * M + 2):  # wraps the ring more than twice
            gains = random_gains(rng, L, 2)
            x = rng.standard_normal(L)
            shifted[:, 1:] = shifted[:, :-1]
            shifted[:, 0] = gains.expand() * x
            mem = update_memory_regressor(state, gains, x)
            assert mem.shape == (L, M)
            assert np.array_equal(mem, shifted)
            assert np.array_equal(state.memory_regressor, shifted)


class TestBlasLayout:
    """The step's matrix operands keep a layout BLAS accepts."""

    @pytest.mark.parametrize("L,M", [(16, 1), (16, 3), (64, 8)])
    def test_regressor_view(self, L, M):
        rng = np.random.default_rng(L + M)
        history = RegressorHistory(L, M)
        for _ in range(2 * (L + M)):
            history.push(rng.standard_normal())
            assert blas_ready(history.regressor_matrix().T)

    @pytest.mark.parametrize("M", [1, 3])
    def test_memory_view(self, M):
        rng = np.random.default_rng(M)
        state = FilterState.initial(FilterConfig("bs-mpapa", 16, M, group_size=4))
        for _ in range(2 * M + 1):
            mem = update_memory_regressor(state, random_gains(rng, 16, 4), rng.standard_normal(16))
            assert blas_ready(mem) and blas_ready(state.memory_regressor)

    @pytest.mark.parametrize("plain,memory", [(1, 0), (0, 1), (3, 2), (3, 3)])
    def test_batch_buffers(self, plain, memory):
        count = plain + memory  # B = 1, 1, 5, 6; the memory rows come last
        configs = [FilterConfig("bs-papa", 16, 3, group_size=4)] * plain
        configs += [FilterConfig("bs-mpapa", 16, 3, group_size=4)] * memory
        batch = filters._Batch(configs, np.zeros((count, 16)), np.zeros((memory, 6, 16)))
        history = RegressorHistory(16, 3)
        rng = np.random.default_rng(count)
        for _ in range(7):  # past 2M pushes: the memory ring wraps
            history.push(rng.standard_normal())
            batch.step(history, rng.standard_normal(3))
            assert batch.weights.flags.c_contiguous  # unit-stride rows: the error's vectors
            for weighted, *stacks in batch._parts:  # the plain rows' build stack and out buffers
                assert weighted.flags.c_contiguous and weighted.shape == (plain, 16, 3)
                assert all(blas_ready(m) for m in weighted)
                assert all(a.flags.c_contiguous for a in stacks)
            assert all(a.flags.c_contiguous for a in batch._ring_stacks)
            ring_views = batch._ring_views[batch.head]  # the ring regressors
            assert ring_views.shape == (memory, 16, 3) and all(blas_ready(m) for m in ring_views)
            assert all(lu.flags.f_contiguous for lu in batch._lu)

    @pytest.mark.parametrize("group", [1, 4, 16])
    @pytest.mark.parametrize("order", [1, 2, 8])
    def test_every_efficient_build(self, group, order):
        rng = np.random.default_rng(group * 10 + order)
        history = make_history(rng.standard_normal(40), 16, order)
        built = build_weighted_regressor_efficient(random_gains(rng, 16, group), history)
        assert blas_ready(built.matrix)


class TestSolveRegularized:
    def test_identity(self):
        z = solve_regularized(np.eye(2), 0.0, np.array([1.0, 2.0]))
        np.testing.assert_allclose(z, [1.0, 2.0], rtol=1e-15)

    def test_diagonal_loading(self):
        z = solve_regularized(np.diag([2.0, 4.0]), 1.0, np.array([3.0, 5.0]))
        np.testing.assert_allclose(z, [1.0, 1.0], rtol=1e-15)

    def test_residual_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            a = rng.standard_normal((8, 8))
            a = a @ a.T + 0.5 * np.eye(8)  # well conditioned
            e = rng.standard_normal(8)
            z = solve_regularized(a, 0.01, e)
            residual = np.abs((a + 0.01 * np.eye(8)) @ z - e).max()
            assert residual <= 1e-10 * max(1.0, np.abs(e).max())

    def test_nonsymmetric_systems(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((5, 5))
        e = rng.standard_normal(5)
        z = solve_regularized(a, 0.3, e)
        np.testing.assert_allclose((a + 0.3 * np.eye(5)) @ z, e, atol=1e-10)

    def test_matrix_argument_left_unchanged(self):
        rng = np.random.default_rng(21)
        for matrix in (rng.standard_normal((6, 6)), np.asfortranarray(rng.standard_normal((6, 6)))):
            before = matrix.copy()
            solve_regularized(matrix, 0.5, rng.standard_normal(6))
            np.testing.assert_array_equal(matrix, before)

    def test_singular_raises_with_pivot(self):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularSystemError) as excinfo:
            solve_regularized(singular, 0.0, np.array([1.0, 1.0]))
        assert excinfo.value.pivot >= 0.0

    def test_nan_system_solves_to_nan_without_raising(self):
        # A NaN pivot is not a collapse: smallest <= bound is false for NaN,
        # so the NaN runs on into the weights and the harness's diverged abort.
        z = solve_regularized(np.full((3, 3), np.nan), 0.1, np.ones(3))
        assert np.isnan(z).all()
        # NaN beside an exactly zero pivot: np.min propagates the NaN
        z = solve_regularized(np.array([[np.nan, 0.0], [0.0, 0.0]]), 0.0, np.ones(2))
        assert not np.isfinite(z).any()

    def test_stacked_solve_isolates_nan_and_singular_systems(self):
        rng = np.random.default_rng(23)
        systems = rng.standard_normal((4, 5, 5)) + 4.0 * np.eye(5)
        systems[1] = np.nan
        systems[2] = 0.0
        rhs = rng.standard_normal((4, 5))
        base = np.empty((4, 5, 5))
        lu, diagonal = base.transpose(0, 2, 1), base.reshape(4, -1)[:, ::6]  # F-contiguous slices
        np.copyto(lu, systems)
        solution = rhs.copy()
        delta = np.array([[0.1], [0.1], [0.0], [0.2]])
        failed = filters._solve_stack(list(zip(lu, solution)), diagonal, delta)
        assert list(failed) == [2] and failed[2].pivot == 0.0
        assert np.isnan(solution[1]).all()
        for b, delta in ((0, 0.1), (3, 0.2)):
            assert np.array_equal(solution[b], solve_regularized(systems[b], delta, rhs[b]))

    def test_nan_row_leaves_the_other_batch_rows_unchanged(self):
        rng = np.random.default_rng(24)
        configs = [FilterConfig("bs-papa", 16, 3, group_size=4, step_size=0.3)] * 2
        configs += [FilterConfig("bs-mpapa", 16, 3, group_size=2, step_size=0.4)]
        weights = 0.1 * rng.standard_normal((3, 16))
        weights[1] = np.nan
        solo = [FilterState(weights[b].copy(), np.zeros((6, 16)) if b == 2 else None) for b in (0, 2)]
        batch = filters._Batch(configs, weights.copy(), np.zeros((1, 6, 16)))
        history = RegressorHistory(16, 3)
        for n in range(40):
            history.push(rng.standard_normal())
            desired = rng.standard_normal(3)
            _, failed = batch.step(history, desired)
            assert not failed
            for state, b in zip(solo, (0, 2)):
                filter_step(configs[b], state, history, desired)
                assert np.array_equal(batch.weights[b], state.weights)
        assert np.isnan(batch.weights[1]).all()

    @pytest.mark.parametrize("delta", [-1.0, float("nan"), float("inf")])
    def test_negative_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            solve_regularized(np.eye(2), delta, np.zeros(2))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            solve_regularized(np.zeros((2, 3)), 0.1, np.zeros(2))
        with pytest.raises(ValueError):
            solve_regularized(np.eye(2), 0.1, np.zeros(3))


class TestVariantGains:
    def test_apa_identity(self):
        cfg = FilterConfig("apa", 16, 2)
        gv = variant_gains(cfg, np.random.default_rng(0).standard_normal(16))
        np.testing.assert_array_equal(gv.block_gains, [1.0])
        np.testing.assert_array_equal(gv.expand(), np.ones(16))

    def test_per_tap_and_block_paths_agree_for_unit_groups(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal(16)
        papa = variant_gains(FilterConfig("papa", 16, 2), w)
        bs = variant_gains(FilterConfig("bs-papa", 16, 2, group_size=1), w)
        np.testing.assert_allclose(papa.block_gains, bs.block_gains, rtol=1e-12)


class TestFilterStep:
    def test_zero_step_size_freezes_weights(self):
        rng = np.random.default_rng(17)
        cfg = FilterConfig("bs-papa", 8, 2, group_size=4, step_size=0.0)
        filt = AdaptiveFilter(cfg)
        for n in range(20):
            filt.process(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_array_equal(filt.weights, np.zeros(8))

    def test_perfect_weights_stay_put(self):
        rng = np.random.default_rng(18)
        truth = rng.standard_normal(8)
        cfg = FilterConfig("bs-papa", 8, 2, group_size=4, step_size=0.7)
        filt = AdaptiveFilter(cfg)
        filt.state.weights[:] = truth
        for n in range(30):
            filt.history.push(rng.standard_normal())
            desired = [
                float(filt.history.input_vector(0) @ truth),
                float(filt.history.input_vector(1) @ truth),
            ]
            filter_step(cfg, filt.state, filt.history, desired)
        np.testing.assert_allclose(filt.weights, truth, rtol=0, atol=1e-12)

    def test_scalar_one_step_identification(self):
        cfg = FilterConfig("pnlms", 1, 1, step_size=1.0, regularization=0.0)
        filt = AdaptiveFilter(cfg)
        filt.process(2.0, 2.0)  # true system h = 1
        assert filt.weights[0] == 1.0

    def test_matrix_one_step_identification(self):
        cfg = FilterConfig("bs-papa", 1, 1, group_size=1, step_size=1.0, regularization=0.0)
        filt = AdaptiveFilter(cfg)
        filt.process(2.0, 2.0)
        np.testing.assert_allclose(filt.weights, [1.0], rtol=1e-15)

    def test_dimension_mismatch_rejected(self):
        cfg = FilterConfig("apa", 4, 2)
        state = FilterState.initial(cfg)
        history = RegressorHistory(4, 3)
        with pytest.raises(ValueError):
            filter_step(cfg, state, history, np.zeros(3))

    @pytest.mark.parametrize("desired", [np.zeros(3), np.zeros(1), np.zeros((2, 1))])
    def test_wrong_length_desired_rejected(self, desired):
        cfg = FilterConfig("apa", 4, 2)
        with pytest.raises(ValueError, match="desired samples"):
            filter_step(cfg, FilterState.initial(cfg), RegressorHistory(4, 2), desired)

    def test_state_not_matching_config_rejected(self):
        cfg = FilterConfig("mpapa", 4, 2)
        history = RegressorHistory(4, 2)
        with pytest.raises(ValueError, match="weights"):
            filter_step(cfg, FilterState(np.zeros(5)), history, np.zeros(2))
        with pytest.raises(ValueError, match="memory"):
            filter_step(cfg, FilterState(np.zeros(4)), history, np.zeros(2))

    @pytest.mark.parametrize(
        "variant,group",
        [
            ("apa", None),
            ("papa", None),
            ("bs-papa", 4),
            ("mpapa", None),
            ("bs-mpapa", 4),
            ("bs-pnlms", 4),
            ("pnlms", None),
        ],
    )
    def test_process_equals_validating_filter_step_loop(self, variant, group):
        order = 1 if variant.endswith("pnlms") else 3
        cfg = FilterConfig(variant, 16, order, group_size=group, step_size=0.3)
        rng = np.random.default_rng(22)
        x, d = rng.standard_normal((2, 5 * (16 + order)))  # past 2*span: both rings wrap
        filt = AdaptiveFilter(cfg)
        state, history = FilterState.initial(cfg), RegressorHistory(16, order)
        window = np.zeros(order)
        for n in range(x.size):
            history.push(x[n])
            window = np.concatenate(([d[n]], window[:-1]))
            expected = filter_step(cfg, state, history, window)
            assert filt.process(x[n], d[n]) == expected
            assert np.array_equal(filt.weights, state.weights)
        assert np.any(state.weights != 0.0)

    def test_process_on_silent_input_raises_singular_with_pivot(self):
        cfg = FilterConfig("bs-papa", 8, 2, group_size=4, regularization=0.0)
        filt = AdaptiveFilter(cfg)
        with pytest.raises(SingularSystemError) as excinfo:
            filt.process(0.0, 1.0)
        assert excinfo.value.pivot == 0.0

    def test_process_returns_a_priori_error(self):
        cfg = FilterConfig("papa", 4, 2, step_size=0.5)
        filt = AdaptiveFilter(cfg)
        first = filt.process(1.0, 3.0)
        assert first == 3.0  # zero-initialized weights leave the desired untouched
        # d - x @ w with the weights before the update: exactly for the scalar
        # step, to rounding where the error comes from the regressor matmul
        rng = np.random.default_rng(20)
        for cfg, tol in [
            (FilterConfig("pnlms", 16, step_size=0.5), 0.0),
            (FilterConfig("bs-papa", 16, 4, group_size=4, step_size=0.5), 1e-12),
            (FilterConfig("mpapa", 16, 3, step_size=0.5), 1e-12),
        ]:
            filt = AdaptiveFilter(cfg)
            for _ in range(100):
                x, d = rng.standard_normal(2)
                before = filt.weights.copy()
                prior = filt.process(x, d)
                expected = d - filt.history.input_vector() @ before
                assert abs(prior - expected) <= tol * max(1.0, abs(expected))
            assert np.any(filt.weights != 0.0)

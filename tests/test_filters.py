"""Update engines: regressor handling, builders, solver, and the step itself."""

import copy
import pickle
import re
import tracemalloc
import warnings

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
    gen_excitation,
    make_block_sparse_ir,
    preset_config,
    solve_regularized,
    update_memory_regressor,
    variant_gains,
)
from oracles import reference_efficient_build, reference_regressor_matrix


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

    @pytest.mark.parametrize("variant", ["apa", "papa"])
    @pytest.mark.parametrize("guards", [(0.01, 0.01), None, {"rho": 0.01, "q": 0.01}])
    def test_guards_must_be_stall_guards(self, variant, guards):
        with pytest.raises(ValueError, match="^guards must be a StallGuards"):
            FilterConfig(variant, 16, 2, guards=guards)
        assert FilterConfig(variant, 16, 2, guards=StallGuards(0.5, 0.2)).guards == StallGuards(0.5, 0.2)

    @pytest.mark.parametrize(
        "args,kwargs,field",
        [
            (("apa", 16, 2.0), {}, "projection_order"),
            (("bs-papa", 16), {"group_size": 4.0}, "group_size"),
            (("apa", True), {}, "filter_length"),
            (("apa", 16.0, 2), {}, "filter_length"),
            (("papa", 16, True), {}, "projection_order"),
            (("papa", 16), {"group_size": 1.0}, "group_size"),
            (("bs-papa", 16), {"group_size": np.bool_(True)}, "group_size"),
        ],
    )
    def test_sizes_must_be_integers(self, args, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            FilterConfig(*args, **kwargs)

    def test_numpy_integer_sizes_are_accepted(self):
        cfg = FilterConfig("bs-papa", np.int64(16), np.int32(2), group_size=np.int64(4), step_size=0.5)
        filt = AdaptiveFilter(cfg)
        assert filt.process(1.0, 2.0) == 2.0 and filt.weights.any()
        assert cfg.partition.block_count == 4

    def test_partition_is_built_once(self, monkeypatch):
        built = []
        monkeypatch.setattr(filters, "BlockPartition", lambda *a: built.append(a) or BlockPartition(*a))
        cfg = FilterConfig("bs-papa", 16, 2, group_size=4)
        assert cfg.partition is cfg.partition and cfg.partition.block_count == 4
        assert built == [(16, 4)]

    def test_multiplication_formulas(self):
        eff = FilterConfig("bs-papa", 1024, 8, 32)
        mem = FilterConfig("bs-mpapa", 1024, 8, 32)
        assert eff.multiplications_per_step == (32 + 8 - 1) * 32 == 1248
        assert mem.multiplications_per_step == 1024


@pytest.mark.parametrize("call,field", [
    (lambda: BlockPartition(7.0, 3.5), "filter_length"),
    (lambda: BlockPartition(8, 2.0), "group_size"),
    (lambda: BlockPartition(True, True), "filter_length"),
    (lambda: RegressorHistory(10.5, 2), "filter_length"),
    (lambda: RegressorHistory(8, 2.0), "projection_order"),
    (lambda: RegressorHistory(4, 2).input_vector(True), "delay"),
    (lambda: make_block_sparse_ir(10.5, [(1, 2)], 0), "filter_length"),
    (lambda: gen_excitation(10.5, 0), "n_samples"),
], ids=["partition-floats", "partition-float-group", "partition-bools", "history-length",
        "history-order", "history-bool-delay", "response-length", "excitation-length"])
def test_size_arguments_take_integers_only(call, field):
    with pytest.raises(ValueError, match=rf"^{field} must be .*integer"):
        call()


def test_numpy_integer_sizes_accepted():
    L, M, P = np.int64(8), np.int32(2), np.uint8(4)
    assert BlockPartition(L, P).block_count == 2
    history = RegressorHistory(L, M)
    history.extend(np.arange(1.0, 4.0))
    np.testing.assert_array_equal(history.input_vector(np.int64(1)), [2, 1, 0, 0, 0, 0, 0, 0])
    assert gen_excitation(L, 0).tobytes() == gen_excitation(8, 0).tobytes()
    np.testing.assert_array_equal(make_block_sparse_ir(L, [(1, 2)], 0).taps, make_block_sparse_ir(8, [(1, 2)], 0).taps)


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

    @pytest.mark.parametrize("sample", [np.array([1.0, 2.0]), np.array(1.0), [1.0], True, 1j, "1.0", None],
                             ids=["vector", "0-d", "list", "bool", "complex", "str", "none"])
    @pytest.mark.parametrize("rows", [False, True], ids=["one ring", "row ring"])
    def test_a_sample_that_is_not_a_real_scalar_is_rejected_and_leaves_the_history(self, sample, rows):
        """A pair of samples used to land in the live slot and its mirror, one each."""
        history = make_history([3.0, 4.0, 5.0], 4, 2)
        if rows:
            history._first_rows(4)
        state = pickle.dumps(history), history._head, history._row_head, history._buf.copy()
        with pytest.raises(ValueError, match=re.escape(f"sample must be a real scalar, got {sample!r}")):
            history.push(sample)
        assert (history._head, history._row_head) == state[1:3]
        assert np.array_equal(history._buf, state[3]) and pickle.dumps(history) == state[0]
        if rows:
            assert np.array_equal(history._first_rows(4), reference_regressor_matrix(history))

    @pytest.mark.parametrize("samples", [[[1.0, 2.0], [3.0, 4.0]], "5", 5.0, [True, False], [1.0, 1j],
                                         [1.0, None], ["1", "2"]],
                             ids=["2-d", "str", "0-d", "bools", "complex", "none", "strs"])
    def test_extend_takes_only_a_1d_sequence_of_real_scalars(self, samples):
        """A 2-D batch used to push its every element, and a string the number it spells;
        a rejected batch pushes nothing."""
        history = make_history([3.0, 4.0, 5.0], 4, 2)
        state = pickle.dumps(history)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a complex batch lost its imaginary part with a warning
            with pytest.raises(ValueError, match="^samples must (be a 1-D sequence|hold real numbers)"):
                history.extend(samples)
        assert pickle.dumps(history) == state

    @pytest.mark.parametrize("samples", [[2, 3], np.arange(2, 4, dtype=np.int8), np.array([2.0, 3.0]), []])
    def test_extend_pushes_each_real_scalar_oldest_first(self, samples):
        history = make_history([1.0], 3, 2)
        history.extend(samples)
        np.testing.assert_array_equal(history.window()[: len(samples) + 1], [*np.asarray(samples)[::-1], 1.0])

    @pytest.mark.parametrize("sample", [2, np.float32(2.5), np.int64(-3), 1e308])
    def test_every_real_scalar_is_a_sample(self, sample):
        history = make_history([1.0], 3, 2)
        history.push(sample)
        np.testing.assert_array_equal(history.window(), [float(sample), 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("L,M", [(16, 1), (16, 3), (64, 8)])
    @pytest.mark.parametrize("first_read", [0, 7])
    def test_row_ring_is_the_contiguous_regressor(self, L, M, first_read):
        rng = np.random.default_rng(L + M + first_read)
        history = make_history(rng.standard_normal(first_read), L, M)
        for _ in range(2 * (L + M) + 3):  # past 2*span pushes: the ring wraps
            rows = history._first_rows(L)
            assert rows.flags.c_contiguous and not rows.flags.writeable
            assert np.array_equal(rows, np.ascontiguousarray(history.regressor_matrix()))
            history.push(rng.standard_normal())

    @pytest.mark.parametrize("L,M", [(16, 1), (16, 3)])
    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda h: pickle.loads(pickle.dumps(h))])
    def test_a_copy_keeps_up_with_the_original(self, L, M, clone):
        rng = np.random.default_rng(L + M)
        history = make_history(rng.standard_normal(3 * (L + M)), L, M)
        history._first_rows(L)  # the original has a row ring, the copy makes its own
        twin = clone(history)
        gains = random_gains(rng, L, 4)
        for _ in range(2 * (L + M) + 3):
            sample = rng.standard_normal()
            history.push(sample)
            twin.push(sample)
            assert np.array_equal(twin.window(), history.window())
            assert np.array_equal(twin.regressor_matrix(), history.regressor_matrix())
            assert np.array_equal(twin._first_rows(L), history._first_rows(L))
            built = build_weighted_regressor_efficient(gains, twin).matrix
            assert np.array_equal(built, build_weighted_regressor_efficient(gains, history).matrix)

    @pytest.mark.parametrize("L,M,P", [(16, 3, 4), (64, 8, 16)])
    def test_a_ring_of_first_rows_grows_to_the_whole_regressor(self, L, M, P):
        rng = np.random.default_rng(L + M + P)
        history = make_history(rng.standard_normal(5), L, M)
        for _ in range(2 * P + 3):  # past 2P pushes: the P-row ring wraps
            rows = history._first_rows(P)
            assert rows.flags.c_contiguous and history._rows.shape == (2 * P, M)
            assert np.array_equal(rows, reference_regressor_matrix(history)[:P])
            history.push(rng.standard_normal())
        assert history._xt is None  # nothing above read X(n).T whole
        for _ in range(2 * (L + M) + 3):  # past 2L pushes and the window's wrap
            rows = history._first_rows(L)
            assert rows.flags.c_contiguous and history._rows.shape == (2 * L, M)
            assert np.array_equal(rows, np.ascontiguousarray(history.regressor_matrix()))
            assert np.array_equal(history._first_rows(P), rows[:P])
            history.push(rng.standard_normal())
        with pytest.raises(ValueError):
            history._first_rows(L + 1)

    @pytest.mark.parametrize("reads", ["none", "first rows", "all rows", "transposed"])
    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda h: pickle.loads(pickle.dumps(h))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_round_trips_before_and_after_its_rings_are_made(self, reads, clone):
        L, M, P = 16, 3, 4
        rng = np.random.default_rng(31)
        history = make_history(rng.standard_normal(2 * L), L, M)
        read = {"none": lambda h: None, "first rows": lambda h: h._first_rows(P),
                "all rows": lambda h: h._first_rows(L), "transposed": RegressorHistory.regressor_matrix}[reads]
        read(history)
        twin = clone(history)
        assert twin._xt is None and twin._rows is None  # a copy holds one ring row
        for _ in range(2 * (L + M) + 3):
            sample = rng.standard_normal()
            history.push(sample)
            twin.push(sample)
            read(twin)
            assert np.array_equal(twin.window(), history.window())
            assert np.array_equal(twin._first_rows(P), history._first_rows(P))
            assert np.array_equal(twin.regressor_matrix(), history.regressor_matrix())
            assert np.array_equal(twin._first_rows(L), history._first_rows(L))

    def test_a_pickle_holds_one_ring_row(self):
        history = make_history(np.random.default_rng(30).standard_normal(3000), 1024, 8)
        history._first_rows(1024)
        assert len(pickle.dumps(history)) < 64 * 1024


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

    @pytest.mark.parametrize("L,M,P", [(16, 3, 4), (64, 8, 16)])
    def test_efficient_build_follows_the_ring_through_its_wraps_and_swap(self, L, M, P):
        """The build reads the live ring row every call: past several wraps of the window,
        and after the first whole read of X(n).T swaps the ring for row 0 of its M-fold copy."""
        rng = np.random.default_rng(L + M + P)
        history = RegressorHistory(L, M)
        part = BlockPartition(L, P)
        span = L + M - 1
        for n in range(5 * span):
            history.push(rng.standard_normal())
            if n == 2 * span + 3:
                before = history._buf
                history.regressor_matrix()
                assert history._buf is not before
            block_gains = rng.uniform(0.01, 3.0, part.block_count)
            built = build_weighted_regressor_efficient(GainVector(block_gains, part), history).matrix
            assert np.array_equal(built, reference_efficient_build(block_gains, P, history)), n

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

    @pytest.mark.parametrize(
        "variants,reads_rows,shape",
        [
            (("pnlms", "bs-pnlms"), False, (16, 3, 4)),  # scalar rows
            (("mpapa", "bs-mpapa"), False, (16, 3, 4)),  # memory rows
            (("bs-papa",), True, (16, 3, 4)),  # P taps a block, weighted in place
            (("bs-papa", "papa"), True, (16, 3, 4)),  # one-tap rows, weighted in place
            (("apa", "mpapa"), True, (16, 3, 4)),  # unit-gain rows are the row view
            (("bs-papa",), True, (32, 16, 16)),  # P and M from _SUM_FROM on: summed, reading X(n)
        ],
    )
    def test_unit_gain_in_place_and_summed_rows_make_the_row_ring(self, variants, reads_rows, shape):
        L, M, P = shape
        configs = [
            FilterConfig(v, L, 1 if v.endswith("pnlms") else M, P if v.startswith("bs-") else None)
            for v in variants
        ]
        [(_, batch)] = filters._panel_batches(configs)
        # from _SUM_FROM on a panel's batch is recursive and sums
        assert batch.scalar or bool(batch._summed) == (min(M, P) >= filters._SUM_FROM)
        order = configs[0].projection_order
        history = RegressorHistory(L, order)
        rng = np.random.default_rng(len(variants))
        for _ in range(5):
            history.push(rng.standard_normal())
            batch.step(history, rng.standard_normal(order))
        expected = (2 * L, order) if reads_rows else None  # 2L rows of M floats: X(n) mirrored
        assert (None if history._rows is None else history._rows.shape) == expected

    def test_a_recursive_batch_makes_one_lag_ring_per_group_size(self):
        """apa (P = 16, the divisor of L = 256 nearest its root), bs-papa and bs-mpapa
        with P = 16 read one lag ring; a memory row's lag write reads X(n)[:P], so alone
        its history makes a row ring of 2P rows.  mpapa (P = 1) keeps its products over
        X(n): no lag ring, and no row ring."""
        L, M = 256, filters._RECURSE_FROM
        configs = [FilterConfig("apa", L, M), FilterConfig("bs-papa", L, M, 16), FilterConfig("bs-mpapa", L, M, 16)]
        rng = np.random.default_rng(256)
        for members, groups, rows in ((configs, [16], (2 * L, M)), (configs[2:], [16], (2 * 16, M)),
                                      ([FilterConfig("mpapa", L, M)], [], None)):
            [(_, batch)] = filters._panel_batches(members)
            assert batch.recursive and batch._lag_groups == groups
            assert batch._lags.shape == (len(groups), 2 * (L + M - 1), M)
            history = RegressorHistory(L, M)
            for _ in range(5):
                history.push(rng.standard_normal())
                batch.step(history, rng.standard_normal(M))
            assert (None if history._rows is None else history._rows.shape) == rows

    @pytest.mark.parametrize("variant,group,rows", [("apa", None, 64), ("bs-papa", 64, 4096), ("bs-mpapa", 64, 64)])
    def test_long_echo_entries_never_make_the_m_fold_ring(self, variant, group, rows):
        """Long-echo's entries, each as its own panel batch at (4096, 16), read X(n).T only
        by its row 0: past a wrap of the window their history still holds one ring row, so a
        push writes two slots.  The row ring holds the rows of X(n) the batch reads: APA's
        fictitious weights and BS-MPAPA's memory row only those of their lag write."""
        L, M = 4096, 16
        [(_, batch)] = filters._panel_batches([FilterConfig(variant, L, M, group)])
        history = RegressorHistory(L, M)
        rng = np.random.default_rng(4096)
        samples, desired = rng.standard_normal(L + M + 8), rng.standard_normal((L + M + 8, M))
        for x, d in zip(samples, desired):  # past span = L + M - 1 pushes: the window wraps
            history.push(x)
            assert not batch.step(history, d)[1]
        assert history._xt is None and history._buf.base.shape == (1, 2 * (L + M - 1))
        assert history._slots.shape == (L + M - 1, 2)
        assert history._rows.shape == (2 * rows, M)

    @pytest.mark.parametrize("variant", ["apa", "bs-papa"])
    def test_a_recursive_batch_of_unit_gain_rows_reads_only_its_lag_rows(self, variant):
        """A recursive batch whose only projection row is unit-gain (apa, bs-papa with
        P = L) holds fictitious weights: its error reads x(n), its update x(n - M + 1) and
        its Gram matrix the lag ring, so its history holds one ring row and a row ring of
        2P rows, P = 16 the lag group of L = 256, past wraps of both."""
        L, M = 256, filters._RECURSE_FROM
        cfg = FilterConfig(variant, L, M, L if variant == "bs-papa" else None, step_size=0.3)
        [(_, batch)] = filters._panel_batches([cfg])
        assert batch.recursive and batch.units == (0, 1) and batch._lag_groups == [16]
        history = RegressorHistory(L, M)
        rng = np.random.default_rng(L)
        for x, d in rng.standard_normal((L + M + 8, 2)):  # past a wrap of the window
            history.push(x)
            assert not batch.step(history, np.full(M, d))[1]
        assert history._xt is None and history._buf.base.shape == (1, 2 * (L + M - 1))
        assert history._rows.shape == (2 * 16, M)

    def test_a_fig2_batch_makes_both_rings(self):
        """fig2's batch at M=8 is not recursive: its error and Gram read X(n).T whole, and its
        rows weight all of X(n), so its history makes the M-fold ring and the full row ring."""
        configs = [cfg for _, cfg in preset_config("fig2").panel]
        L, M = configs[0].filter_length, configs[0].projection_order
        [(_, batch)] = filters._panel_batches(configs)
        history = RegressorHistory(L, M)
        rng = np.random.default_rng(8)
        for _ in range(5):
            history.push(rng.standard_normal())
            batch.step(history, rng.standard_normal(M))
        assert not batch.recursive and history._buf.base.shape == (M, 2 * (L + M - 1))
        assert history._xt is not None and history._rows.shape == (2 * L, M)

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

    def test_empty_system_rejected_before_lapack(self, capfd):
        with pytest.raises(ValueError, match=re.escape("matrix must be square and nonempty, got shape (0, 0)")):
            solve_regularized(np.zeros((0, 0)), 0.1, np.zeros(0))
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("matrix,rhs,name", [
        (np.eye(2), 1j * np.ones(2), "rhs"), (np.eye(2) + 0j, np.ones(2), "matrix"), (np.eye(2), ["1", "2"], "rhs"),
        ([[1.0, None], [0.0, 1.0]], np.ones(2), "matrix"), (np.eye(2, dtype=bool), np.ones(2), "matrix")],
        ids=["complex rhs", "complex matrix", "str rhs", "none", "bool matrix"])
    def test_complex_or_non_numeric_input_is_rejected_by_name(self, matrix, rhs, name):
        """A complex right-hand side used to lose its imaginary part with only a ComplexWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must hold real numbers"):
                solve_regularized(matrix, 0.1, rhs)

    def test_singular_raises_with_pivot(self):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularSystemError) as excinfo:
            solve_regularized(singular, 0.0, np.array([1.0, 1.0]))
        assert excinfo.value.pivot >= 0.0

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_singular_error_copies_with_its_message_and_pivot(self, clone):
        # a shard child's exception reaches the parent pickled
        with pytest.raises(SingularSystemError) as excinfo:
            solve_regularized(np.zeros((2, 2)), 0.0, np.ones(2))
        error = excinfo.value
        error.add_note("entry 3")
        copied = clone(error)
        assert type(copied) is SingularSystemError and copied is not error
        assert str(copied) == str(error) and copied.args == error.args
        assert copied.pivot == error.pivot == 0.0 and copied.__notes__ == ["entry 3"]

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
        solution = rhs.copy()
        delta = np.array([[0.1], [0.1], [0.0], [0.2]])
        np.copyto(lu, systems + delta[:, :, None] * np.eye(5))  # the stack takes delta on its diagonals
        failed = filters._solve_stack(list(zip(lu, solution)), diagonal)
        assert list(failed) == [2] and failed[2].pivot == 0.0
        assert np.isnan(solution[1]).all()
        for b, delta in ((0, 0.1), (3, 0.2)):
            assert np.array_equal(solution[b], solve_regularized(systems[b], delta, rhs[b]))

    @pytest.mark.parametrize(
        "nan_at,singular_at", [(n, s) for n in (0, 1, 3) for s in (None, 0, 2) if n != s]
    )
    def test_stacked_pivot_test_wherever_the_nan_sits(self, nan_at, singular_at):
        """A NaN system first, in the middle or last in the stack never hides a
        collapse elsewhere, and is never one itself."""
        rng = np.random.default_rng(29)
        systems = rng.standard_normal((4, 3, 3)) + 4.0 * np.eye(3)
        systems[nan_at] = np.nan
        if singular_at is not None:
            systems[singular_at] = 0.0
        base = np.empty((4, 3, 3))
        lu, diagonal = base.transpose(0, 2, 1), base.reshape(4, -1)[:, ::4]
        np.copyto(lu, systems)
        solution = np.ones((4, 3))
        failed = filters._solve_stack(list(zip(lu, solution)), diagonal)  # delta = 0
        assert list(failed) == ([] if singular_at is None else [singular_at])
        assert np.isnan(solution[nan_at]).all()

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

    @pytest.mark.parametrize("delta", ["x", True, None])
    def test_non_real_delta_rejected(self, delta):
        """As ``FilterConfig.regularization``: a bool is no real number, so True is no delta of one."""
        with pytest.raises(ValueError, match="^regularization must be a real number"):
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
        "config,state_of",
        [
            (FilterConfig("papa", 16, 3), FilterConfig("mpapa", 16, 3)),  # a ring the config has none of
            (FilterConfig("bs-papa", 16, 3, group_size=4), FilterConfig("bs-mpapa", 16, 3, group_size=4)),
            (FilterConfig("mpapa", 16, 3), FilterConfig("mpapa", 16, 2)),  # a ring of another shape
        ],
    )
    def test_memory_ring_must_match_the_config(self, config, state_of):
        state = FilterState.initial(state_of)
        state.memory_head = 1
        history = RegressorHistory(16, 3)
        history.push(1.0)
        with pytest.raises(ValueError, match="memory_ring"):
            filter_step(config, state, history, np.ones(3))
        assert state.memory_head == 1 and not state.weights.any()

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

    @pytest.mark.parametrize(
        "variant,M,group",
        [("apa", 8, None), ("papa", 8, None), ("mpapa", 8, None),
         ("bs-papa", 8, 8), ("bs-papa", 16, 16), ("bs-mpapa", 8, 8)],
    )
    def test_the_six_layers_called_in_turn_are_the_step(self, variant, M, group):
        """A batch of one stepped through its layer methods, not ``step``, has
        ``filter_step``'s errors and weights bit for bit, past 3M samples: every
        ring wraps.  bs-papa weights X(n) in place at P=M=8 and at P=M=16, where
        only a recursive batch sums it."""
        L = 64
        cfg = FilterConfig(variant, L, M, group_size=group, step_size=0.3)
        batch = filters._Batch([cfg], np.zeros((1, L)), np.zeros((int(cfg.is_memory), 2 * M, L)))
        state, history, desired = FilterState.initial(cfg), RegressorHistory(L, M), np.zeros(M)
        rng = np.random.default_rng(32)
        for x, d in rng.standard_normal((3 * M + 5, 2)):
            history.push(x)
            desired[1:] = desired[:-1]
            desired[0] = d
            gains = batch._gains()
            parts = batch._build(history, gains)
            batch._gram(history, parts)
            prior = batch._error(history, desired)
            failed = batch._solve()
            batch._update(history, parts, failed)
            assert not failed and prior == [filter_step(cfg, state, history, desired)]
            assert np.array_equal(batch.weights[0], state.weights) and batch.head == state.memory_head
        assert np.any(state.weights != 0.0)

    @pytest.mark.parametrize("variant,group", [("bs-papa", 4), ("bs-mpapa", 4)])
    def test_filter_step_reuses_its_batch_while_the_state_arrays_stay(self, variant, group):
        cfg = FilterConfig(variant, 16, 3, group_size=group, step_size=0.3)
        other = FilterConfig(variant, 16, 3, group_size=group, step_size=0.7)
        rng = np.random.default_rng(25)
        state, history = FilterState.initial(cfg), RegressorHistory(16, 3)

        def step(config):
            """One filter_step, checked against a fresh batch of one on a copy of the state."""
            history.push(rng.standard_normal())
            desired = rng.standard_normal(3)
            ring = state.memory_ring
            ring_copy = None if ring is None else ring.copy()
            shadow = FilterState(state.weights.copy(), ring_copy, state.memory_head)
            expected = shadow._step(config, history, desired)
            assert filter_step(config, state, history, desired) == expected
            assert np.array_equal(state.weights, shadow.weights)
            assert ring is None or np.array_equal(state.memory_ring, shadow.memory_ring)
            return state._batch[3]

        for _ in range(4):
            batch = step(cfg)
        assert step(cfg) is batch
        old = state.weights
        state.weights = old.copy()
        before = old.copy()
        assert step(cfg) is not batch  # rebinding the weights rebuilds the batch
        assert np.array_equal(old, before) and not np.array_equal(state.weights, before)
        batch = step(other)  # so does another config object
        assert batch.mu[0, 0] == 0.7
        if cfg.is_memory:  # and rebinding the memory ring
            state.memory_ring = state.memory_ring.copy()
            assert step(other) is not batch

    @pytest.mark.parametrize("head", [3, 4, -1, 1.0, True, None])
    def test_memory_head_must_index_the_ring(self, head):
        cfg = FilterConfig("mpapa", 16, 3)
        state = FilterState.initial(cfg)
        state.memory_head = head
        history = RegressorHistory(16, 3)
        history.push(1.0)
        with pytest.raises(ValueError, match="memory_head"):
            filter_step(cfg, state, history, np.ones(3))
        assert state.memory_head is head and not state.weights.any()
        state.memory_head = np.int64(2)  # a numpy integer in range is a head
        filter_step(cfg, state, history, np.ones(3))
        assert state.memory_head == 1 and state.weights.any()

    @pytest.mark.parametrize("variant,group", [("bs-papa", 4), ("bs-mpapa", 4), ("bs-pnlms", 4)])
    def test_process_follows_a_rebound_state_and_weights(self, variant, group):
        order = 1 if variant.endswith("pnlms") else 3
        cfg = FilterConfig(variant, 16, order, group_size=group, step_size=0.3)
        filt = AdaptiveFilter(cfg)
        history, window = RegressorHistory(16, order), np.zeros(order)
        rng = np.random.default_rng(31)

        def feed(count, state=None):
            """Process ``count`` samples; a given ``state`` steps beside, through filter_step."""
            for x, d in rng.standard_normal((count, 2)):
                prior = filt.process(x, d)
                history.push(x)
                window[1:], window[0] = window[:-1].copy(), d
                assert state is None or prior == filter_step(cfg, state, history, window)

        for rebind in (lambda f: setattr(f, "state", FilterState.initial(cfg)),
                       lambda f: setattr(f.state, "weights", np.zeros(16))):
            feed(40)
            stale, before = filt.weights, filt.weights.copy()
            rebind(filt)
            ring = filt.state.memory_ring
            state = FilterState(np.zeros(16), None if ring is None else ring.copy(), filt.state.memory_head)
            feed(40, state)
            assert np.array_equal(filt.weights, state.weights) and filt.weights.any()
            assert np.array_equal(stale, before)  # the arrays let go of are left alone

    @pytest.mark.parametrize("variant,group", [("bs-papa", 4), ("bs-mpapa", 4), ("pnlms", None)])
    def test_a_deep_copied_state_steps_like_the_original(self, variant, group):
        order = 1 if variant == "pnlms" else 3
        cfg = FilterConfig(variant, 16, order, group_size=group, step_size=0.3)
        state, history = FilterState.initial(cfg), RegressorHistory(16, order)
        rng = np.random.default_rng(32)

        def run(states, count):
            for x in rng.standard_normal(count):
                history.push(x)
                desired = rng.standard_normal(order)
                assert len({filter_step(cfg, s, history, desired) for s in states}) == 1

        run([state], 30)
        twin = copy.deepcopy(state)
        assert "_batch" not in twin.__dict__ and "_batch" not in pickle.loads(pickle.dumps(state)).__dict__
        run([state, twin], 30)
        assert np.array_equal(state.weights, twin.weights) and state.weights is not twin.weights
        assert state.memory_head == twin.memory_head
        assert state.memory_ring is None or np.array_equal(state.memory_ring, twin.memory_ring)

    @pytest.mark.parametrize(
        "variant,group",
        [("apa", None), ("papa", None), ("bs-papa", 4), ("mpapa", None), ("bs-mpapa", 4), ("bs-pnlms", 4), ("pnlms", None)],
    )
    def test_a_copied_or_pickled_filter_steps_like_the_original(self, variant, group):
        order = 1 if variant.endswith("pnlms") else 3
        cfg = FilterConfig(variant, 64, order, group_size=group, step_size=0.3)
        filt = AdaptiveFilter(cfg)
        x, d = np.random.default_rng(33).standard_normal((2, 1200))
        for n in range(600):
            filt.process(x[n], d[n])
        blob = pickle.dumps(filt)
        copies = [copy.deepcopy(filt), pickle.loads(blob)]
        for n in range(600, 1200):
            prior = filt.process(x[n], d[n])
            assert [c.process(x[n], d[n]) for c in copies] == [prior, prior]
        assert all(np.array_equal(c.weights, filt.weights) for c in copies)
        assert len(blob) < 24 * 1024

    def test_mixed_scalar_batch_equals_each_solo_run(self):
        configs = [
            FilterConfig("pnlms", 256, step_size=0.4),
            FilterConfig("bs-pnlms", 256, group_size=32, step_size=0.5),
            FilterConfig("bs-pnlms", 256, group_size=256, step_size=0.6),
        ]
        [(indices, batch)] = filters._panel_batches(configs)
        solo = [AdaptiveFilter(cfg) for cfg in configs]
        rng = np.random.default_rng(26)
        history = RegressorHistory(256, 1)
        for x, d in rng.standard_normal((600, 2)):
            history.push(x)
            prior, failed = batch.step(history, np.array([d]))
            assert not failed
            assert prior == [filt.process(x, d) for filt in solo]
            assert all(np.array_equal(batch.weights[b], filt.weights) for b, filt in enumerate(solo))
        assert indices == [0, 1, 2] and np.all(batch.weights != 0.0)

    @pytest.mark.parametrize("doomed", [0, 1, 2])
    def test_silent_scalar_row_alone_leaves_the_batch(self, doomed):
        """Zero input with delta=0 fails one-tap, P-tap and one-block rows alike."""
        configs = [
            FilterConfig("pnlms", 64, step_size=0.4, regularization=0.0 if doomed == 0 else 0.01),
            FilterConfig("bs-pnlms", 64, group_size=8, regularization=0.0 if doomed == 1 else 0.01),
            FilterConfig("bs-pnlms", 64, group_size=64, regularization=0.0 if doomed == 2 else 0.01),
        ]
        [(_, batch)] = filters._panel_batches(configs)
        history = RegressorHistory(64, 1)
        history.push(0.0)
        _, failed = batch.step(history, np.ones(1))
        assert list(failed) == [doomed]
        assert str(failed[doomed]) == "scalar normalization is zero (silent input with delta=0)"
        assert failed[doomed].pivot == 0.0 and not batch.weights.any()
        with pytest.raises(SingularSystemError, match=re.escape(str(failed[doomed]))):
            AdaptiveFilter(configs[doomed]).process(0.0, 1.0)
        rest = batch.without(failed)
        survivors = [AdaptiveFilter(cfg) for b, cfg in enumerate(configs) if b != doomed]
        assert rest.configs == [f.config for f in survivors]
        rng = np.random.default_rng(27)
        for x, d in rng.standard_normal((80, 2)):
            history.push(x)
            assert rest.step(history, np.array([d]))[0] == [f.process(x, d) for f in survivors]
        assert all(np.array_equal(rest.weights[b], f.weights) for b, f in enumerate(survivors))

    @pytest.mark.parametrize("variant,group", [("pnlms", None), ("bs-pnlms", 32), ("bs-pnlms", 1024)])
    def test_scalar_process_allocates_no_filter_length_array(self, variant, group):
        filt = AdaptiveFilter(FilterConfig(variant, 1024, group_size=group, step_size=0.4))
        samples = np.random.default_rng(28).standard_normal((120, 2)).tolist()
        for x, d in samples[:20]:  # warm-up
            filt.process(x, d)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            for x, d in samples[20:]:
                filt.process(x, d)
            growth = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert growth < 8 * 1024, growth

    def test_scalar_panel_batch_allocates_only_its_rows(self):
        """A scalar batch is its rows: weights, update rows and gain buffers, about
        7 arrays of L floats here, and no projection buffers (the step sizes a tap
        alone would be 3 more)."""
        configs = [FilterConfig("pnlms", 1024), FilterConfig("bs-pnlms", 1024, group_size=32),
                   FilterConfig("bs-pnlms", 1024, group_size=1024)]
        tracemalloc.start()
        try:
            [(_, batch)] = filters._panel_batches(configs)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert batch.scalar and size < 72 * 1024, size

    @pytest.mark.parametrize(
        "case,via_filter_step",
        [("fig2", False), ("fig3", False), ("apa", False), ("bs-papa", False), ("bs-mpapa", False),
         ("bs-papa", True)],
    )
    def test_projection_batch_step_allocates_no_filter_length_array(self, case, via_filter_step):
        """Every fig2/fig3 row weights X(n) in place, with its gains in buffers of its own,
        and a step's temporaries stay under 8 KiB.  Long-echo's entries at (L, M) =
        (4096, 16), P=64, each as its own panel batch, and the batch of one ``filter_step``
        keeps for bs-papa, stay under one array of L floats."""
        if case in ("fig2", "fig3"):
            configs, bound = [cfg for _, cfg in preset_config(case).panel], 8 * 1024
        else:
            configs, bound = [FilterConfig(case, 4096, 16, None if case == "apa" else 64)], 8 * 4096
        L, M = configs[0].filter_length, configs[0].projection_order
        if via_filter_step:
            state = FilterState.initial(configs[0])

            def step(history, desired):
                filter_step(configs[0], state, history, desired)
        else:
            [(_, batch)] = filters._panel_batches(configs)

            def step(history, desired):
                assert not batch.step(history, desired)[1]

        rng = np.random.default_rng(29)
        history = RegressorHistory(L, M)
        samples, desired = rng.standard_normal(70), rng.standard_normal((70, M))
        for x, d in zip(samples[:20], desired[:20]):  # warm-up: the row ring is made
            history.push(x)
            step(history, d)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            for x, d in zip(samples[20:], desired[20:]):
                history.push(x)
                step(history, d)
            growth = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert growth < bound, growth

    def test_process_on_silent_input_raises_singular_with_pivot(self):
        cfg = FilterConfig("bs-papa", 8, 2, group_size=4, regularization=0.0)
        filt = AdaptiveFilter(cfg)
        with pytest.raises(SingularSystemError) as excinfo:
            filt.process(0.0, 1.0)
        assert excinfo.value.pivot == 0.0

    @pytest.mark.parametrize("variant", ["apa", "pnlms"])
    @pytest.mark.parametrize("name", ["sample", "desired"])
    def test_process_rejects_a_pair_that_is_not_two_real_scalars(self, variant, name):
        """A vector sample used to return the desired sample and adapt; a vector desired
        failed inside numpy.  Either is named, and the filter is left as it was."""
        filt = AdaptiveFilter(FilterConfig(variant, 4, 1 if variant == "pnlms" else 2, step_size=0.5))
        filt.process(1.0, 0.5)
        before = pickle.dumps(filt)
        pair = {"sample": (np.array([1.0, 2.0]), 0.5), "desired": (1.0, np.array([0.5, 1.0]))}[name]
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a real scalar, got {pair[name == 'desired']!r}")):
            filt.process(*pair)
        assert pickle.dumps(filt) == before

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

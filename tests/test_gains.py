"""Block partitioning and proportionate gain rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspapa import (
    BlockPartition,
    FilterConfig,
    GainVector,
    StallGuards,
    block_gains,
    block_l2_norms,
    make_block_sparse_ir,
    proportionate_gains,
)
from bspapa.gains import _block_norms

GUARDS = StallGuards(rho=0.01, q=0.01)


def brute_force_block_norms(weights, group_size):
    """Independent oracle: plain Python accumulation, no numpy reductions."""
    out = []
    for start in range(0, len(weights), group_size):
        acc = 0.0
        for w in weights[start : start + group_size]:
            acc += float(w) * float(w)
        out.append(acc**0.5)
    return np.array(out)


class TestBlockPartition:
    def test_exact_split(self):
        part = BlockPartition(1024, 32)
        assert part.block_count == 32

    def test_single_tap_blocks(self):
        assert BlockPartition(8, 1).block_count == 8

    def test_whole_filter_block(self):
        assert BlockPartition(8, 8).block_count == 1

    @pytest.mark.parametrize("length,group", [(10, 3), (8, 5), (1024, 33)])
    def test_indivisible_rejected(self, length, group):
        with pytest.raises(ValueError):
            BlockPartition(length, group)

    @pytest.mark.parametrize("length,group", [(0, 1), (8, 0), (8, -2), (8, 9)])
    def test_bad_sizes_rejected(self, length, group):
        with pytest.raises(ValueError):
            BlockPartition(length, group)


class TestStallGuards:
    def test_defaults_positive(self):
        g = StallGuards()
        assert g.rho > 0 and g.q > 0

    @pytest.mark.parametrize("rho,q", [(0.0, 0.01), (0.01, 0.0), (-1.0, 0.01), (0.01, -1.0)])
    def test_nonpositive_rejected(self, rho, q):
        with pytest.raises(ValueError):
            StallGuards(rho, q)


class TestBlockL2Norms:
    def test_right_triangle(self):
        norms = block_l2_norms([3.0, 4.0, 0.0, 0.0], BlockPartition(4, 2))
        np.testing.assert_array_equal(norms, [5.0, 0.0])

    def test_all_zero(self):
        for group in (1, 2, 4, 8):
            norms = block_l2_norms(np.zeros(8), BlockPartition(8, group))
            np.testing.assert_array_equal(norms, np.zeros(8 // group))

    def test_against_brute_force(self):
        rng = np.random.default_rng(712)
        w = rng.standard_normal(8)
        norms = block_l2_norms(w, BlockPartition(8, 4))
        np.testing.assert_allclose(norms, brute_force_block_norms(w, 4), rtol=1e-14)

    def test_against_brute_force_many_shapes(self):
        rng = np.random.default_rng(55)
        for length, group in [(12, 3), (64, 8), (64, 64), (30, 1)]:
            w = rng.standard_normal(length)
            norms = block_l2_norms(w, BlockPartition(length, group))
            np.testing.assert_allclose(norms, brute_force_block_norms(w, group), rtol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            block_l2_norms(np.zeros(7), BlockPartition(8, 2))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), group=st.integers(2, 7), blocks=st.integers(1, 40), buffered=st.booleans())
    def test_short_blocks_summed_by_columns_keep_the_reduction_bits(self, data, group, blocks, buffered):
        """For 1 < P < 8 the column adds give the bits of ``np.add.reduce`` along
        the rows, signed zeros, subnormals, overflow, inf and NaN included."""
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf, np.nan])
        entries = st.one_of(special, st.floats(-1e300, 1e300))
        w = np.array(data.draw(st.lists(entries, min_size=group * blocks, max_size=group * blocks)))
        buffers = (np.empty(blocks), np.empty((blocks, group))) if buffered else ()
        with np.errstate(all="ignore"):
            expected = np.sqrt(np.add.reduce(w.reshape(-1, group) ** 2, axis=1))
            norms = _block_norms(w, group, *buffers)
        assert norms.tobytes() == expected.tobytes()

    def test_single_tap_blocks_give_magnitudes(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal(16)
        norms = block_l2_norms(w, BlockPartition(16, 1))
        np.testing.assert_allclose(norms, np.abs(w), rtol=1e-15)


class TestProportionateGains:
    def test_dominant_block(self):
        # gamma = [5, 0.05], mean 2.525; cross-checked by hand evaluation
        gv = proportionate_gains([5.0, 0.0], GUARDS)
        np.testing.assert_allclose(gv.block_gains, [1.9801980198019802, 0.019801980198019802], rtol=1e-14)
        assert gv.block_gains.sum() == pytest.approx(2.0, rel=1e-14)

    def test_symmetric_norms(self):
        gv = proportionate_gains([1.0, 1.0, 1.0, 1.0], StallGuards(0.5, 2.0))
        np.testing.assert_array_equal(gv.block_gains, np.ones(4))

    def test_all_zero_norms_uniform(self):
        # zero initialization: the q floor keeps every gain alive and equal
        gv = proportionate_gains(np.zeros(6), GUARDS)
        np.testing.assert_array_equal(gv.block_gains, np.ones(6))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            proportionate_gains([], GUARDS)

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            proportionate_gains([1.0, -0.1], GUARDS)

    def test_single_block_is_exactly_one(self):
        for norm in (0.0, 0.3, 42.0):
            gv = proportionate_gains([norm], GUARDS)
            assert gv.block_gains[0] == 1.0

    def test_partition_mismatch_rejected(self):
        with pytest.raises(ValueError):
            proportionate_gains([1.0, 2.0], GUARDS, BlockPartition(12, 4))


class TestGainInvariants:
    def test_mean_one_and_diagonal_sum(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            length, group = rng.choice([(16, 4), (32, 8), (64, 1), (24, 24)])
            w = rng.standard_normal(length) * 10.0 ** rng.integers(-6, 4)
            if rng.random() < 0.2:
                w[:] = 0.0
            gv = block_gains(w, BlockPartition(int(length), int(group)), GUARDS)
            assert abs(gv.block_gains.mean() - 1.0) <= 1e-12
            expanded = gv.expand()
            assert expanded.size == length
            assert abs(expanded.sum() - length) <= 1e-9

    def test_positivity(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            w = rng.standard_normal(32)
            w[rng.random(32) < 0.8] = 0.0
            gv = block_gains(w, BlockPartition(32, 4), GUARDS)
            assert gv.block_gains.min() > 0.0

    def test_scale_covariance(self):
        # scaling the norms leaves gains unchanged while above the q floor
        rng = np.random.default_rng(31)
        norms = np.abs(rng.standard_normal(8)) + GUARDS.q
        base = proportionate_gains(norms, GUARDS).block_gains
        for scale in (2.0, 0.5, 3.7, 1e3):
            scaled = proportionate_gains(scale * norms, GUARDS).block_gains
            np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_expand_repeats_each_block(self):
        gv = GainVector(np.array([2.0, 0.5]), BlockPartition(6, 3))
        np.testing.assert_array_equal(gv.expand(), [2.0, 2.0, 2.0, 0.5, 0.5, 0.5])

    def test_gain_vector_shape_checked(self):
        with pytest.raises(ValueError):
            GainVector(np.ones(3), BlockPartition(8, 4))


@pytest.mark.parametrize(
    "value,accepted", [(4, True), (np.int64(4), True), (True, False), (np.bool_(True), False), (4.0, False)]
)
def test_cluster_endpoints_and_filter_sizes_share_one_integer_rule(value, accepted):
    def takes(build) -> bool:
        try:
            build()
        except ValueError as exc:
            assert "integer" in str(exc)
            return False
        return True

    assert takes(lambda: make_block_sparse_ir(16, [(1, value)], seed=0)) is accepted
    assert takes(lambda: FilterConfig("bs-papa", 16, group_size=value)) is accepted
    assert takes(lambda: FilterConfig("bs-papa", 16, value, group_size=4)) is accepted

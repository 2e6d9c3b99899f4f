"""Block partitioning and proportionate gain rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspapa import (
    BlockPartition,
    EchoScenario,
    FilterConfig,
    GainVector,
    StallGuards,
    ar1_filter,
    make_block_sparse_ir,
    scale_noise_for_snr,
    solve_regularized,
    variant_gains,
)
from bspapa.gains import _block_norms, _floored_gains

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
        norms = _block_norms(np.array([3.0, 4.0, 0.0, 0.0]), 2)
        np.testing.assert_array_equal(norms, [5.0, 0.0])

    def test_all_zero(self):
        for group in (1, 2, 4, 8):
            norms = _block_norms(np.zeros(8), group)
            np.testing.assert_array_equal(norms, np.zeros(8 // group))

    def test_against_brute_force(self):
        rng = np.random.default_rng(712)
        w = rng.standard_normal(8)
        norms = _block_norms(w, 4)
        np.testing.assert_allclose(norms, brute_force_block_norms(w, 4), rtol=1e-14)

    def test_against_brute_force_many_shapes(self):
        rng = np.random.default_rng(55)
        for length, group in [(12, 3), (64, 8), (64, 64), (30, 1)]:
            w = rng.standard_normal(length)
            norms = _block_norms(w, group)
            np.testing.assert_allclose(norms, brute_force_block_norms(w, group), rtol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            variant_gains(FilterConfig("bs-papa", 8, group_size=2), np.zeros(7))

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
        norms = _block_norms(w, 1)
        np.testing.assert_allclose(norms, np.abs(w), rtol=1e-15)


class TestProportionateGains:
    def test_dominant_block(self):
        # gamma = [5, 0.05], mean 2.525; cross-checked by hand evaluation
        gains = _floored_gains(np.array([5.0, 0.0]), GUARDS)
        np.testing.assert_allclose(gains, [1.9801980198019802, 0.019801980198019802], rtol=1e-14)
        assert gains.sum() == pytest.approx(2.0, rel=1e-14)

    def test_symmetric_norms(self):
        gains = _floored_gains(np.ones(4), StallGuards(0.5, 2.0))
        np.testing.assert_array_equal(gains, np.ones(4))

    def test_all_zero_norms_uniform(self):
        # zero initialization: the q floor keeps every gain alive and equal
        gains = _floored_gains(np.zeros(6), GUARDS)
        np.testing.assert_array_equal(gains, np.ones(6))

    def test_single_block_is_exactly_one(self):
        for norm in (0.0, 0.3, 42.0):
            assert _floored_gains(np.array([norm]), GUARDS)[0] == 1.0

    @pytest.mark.parametrize("size", [1, 32, 1024])
    @pytest.mark.parametrize(
        "case",
        [f"{value} {at}" for value in ("nan", "max", "inf") for at in ("first", "middle", "last")]
        + ["signed zeros", "subnormal", "equal"],
    )
    @pytest.mark.parametrize("guards", [GUARDS, StallGuards(rho=0.5, q=5e-324)], ids=["q=0.01", "q=tiny"])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_floor_max_has_the_reduce_bits_on_extreme_norms(self, size, case, guards, in_place):
        """The floor's max must be exact: the rule gives the bits of the max taken by a
        NaN-propagating reduce, written out here, NaN, signed zeros and all."""
        norms = np.random.default_rng(size).random(size)
        value, _, at = case.partition(" ")
        if value in ("nan", "max", "inf"):
            index = {"first": 0, "middle": size // 2, "last": -1}[at]
            norms[index] = {"nan": np.nan, "max": 2.0, "inf": np.inf}[value]
        elif case == "signed zeros":
            norms[::2], norms[1::2] = -0.0, 0.0
        elif case == "subnormal":  # 5e-324 up to 1024 times that, all below the smallest normal
            norms = 5e-324 * np.arange(1, size + 1)
        elif case == "equal":
            norms[:] = 0.7
        given = norms.copy()
        with np.errstate(invalid="ignore"):  # an infinite norm gives inf / inf
            floor = guards.rho * max(guards.q, float(np.maximum.reduce(norms)))
            expected = np.maximum(floor, norms)
            expected /= np.add.reduce(expected) / expected.size
            gains = _floored_gains(given, guards, given if in_place else None)
        assert gains.tobytes() == expected.tobytes()


class TestGainInvariants:
    def test_mean_one_and_diagonal_sum(self):
        rng = np.random.default_rng(2024)
        shapes = [(16, 4), (32, 8), (64, 1), (24, 24)]
        configs = {shape: FilterConfig("bs-papa", shape[0], group_size=shape[1], guards=GUARDS) for shape in shapes}
        for _ in range(200):
            length, group = rng.choice(shapes)
            config = configs[int(length), int(group)]
            w = rng.standard_normal(length) * 10.0 ** rng.integers(-6, 4)
            if rng.random() < 0.2:
                w[:] = 0.0
            gv = variant_gains(config, w)
            assert abs(gv.block_gains.mean() - 1.0) <= 1e-12
            expanded = gv.expand()
            assert expanded.size == length
            assert abs(expanded.sum() - length) <= 1e-9

    def test_positivity(self):
        rng = np.random.default_rng(77)
        config = FilterConfig("bs-papa", 32, group_size=4, guards=GUARDS)
        for _ in range(100):
            w = rng.standard_normal(32)
            w[rng.random(32) < 0.8] = 0.0
            gv = variant_gains(config, w)
            assert gv.block_gains.min() > 0.0

    def test_scale_covariance(self):
        # scaling the norms leaves gains unchanged while above the q floor
        rng = np.random.default_rng(31)
        norms = np.abs(rng.standard_normal(8)) + GUARDS.q
        base = _floored_gains(norms, GUARDS)
        for scale in (2.0, 0.5, 3.7, 1e3):
            scaled = _floored_gains(scale * norms, GUARDS)
            np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_one_tap_and_one_block_shortcuts_give_the_block_rule_bits(self):
        # |w| == sqrt(w*w) short of overflow, and a lone floored norm over itself is one
        rng = np.random.default_rng(808)
        for length in (8, 64):
            taps = FilterConfig("bs-papa", length, group_size=1, guards=GUARDS)
            whole = FilterConfig("bs-papa", length, group_size=length, guards=GUARDS)
            for _ in range(200):
                w = rng.standard_normal(length) * 10.0 ** rng.uniform(-150, 150)
                rule = _floored_gains(_block_norms(w, 1), GUARDS)
                assert variant_gains(taps, w).block_gains.tobytes() == rule.tobytes()
                assert variant_gains(whole, w).block_gains.tobytes() == np.ones(1).tobytes()

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


_IR = make_block_sparse_ir(16, [(3, 4)], seed=0)
# A call taking a real-valued argument: (the call on a value, the field its error names);
# a constructor's call returns the value it stores.
REAL_ARGUMENTS = {
    "EchoScenario.snr_db": (lambda v: EchoScenario(((0, _IR),), snr_db=v, total_samples=8).snr_db, "snr_db"),
    "EchoScenario.pole": (lambda v: EchoScenario(((0, _IR),), pole=v, total_samples=8).pole, "pole"),
    "FilterConfig.step_size": (lambda v: FilterConfig("papa", 16, step_size=v).step_size, "step_size"),
    "FilterConfig.regularization": (
        lambda v: FilterConfig("papa", 16, regularization=v).regularization, "regularization"
    ),
    "StallGuards.rho": (lambda v: StallGuards(rho=v).rho, "rho"),
    "StallGuards.q": (lambda v: StallGuards(q=v).q, "q"),
    "scale_noise_for_snr": (lambda v: scale_noise_for_snr(np.ones(4), v, 0), "snr_db"),
    "ar1_filter": (lambda v: ar1_filter(np.ones(4), v), r"AR\(1\) pole"),
}


@pytest.mark.parametrize("call", list(REAL_ARGUMENTS))
@pytest.mark.parametrize("value", [True, False, np.bool_(False), "0.5", 0.5j])
def test_real_valued_arguments_take_real_numbers_only(call, value):
    build, field = REAL_ARGUMENTS[call]
    with pytest.raises(ValueError, match=rf"^{field} must be a real number"):
        build(value)


@pytest.mark.parametrize("call", [name for name in REAL_ARGUMENTS if "." in name])
@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.5), 0.5])
def test_real_valued_settings_are_stored_as_python_floats(call, value):
    stored = REAL_ARGUMENTS[call][0](value)
    assert type(stored) is float and stored == value


@pytest.mark.parametrize("call", [*REAL_ARGUMENTS, "solve_regularized"])
def test_an_integer_past_the_float_range_is_a_named_error(call):
    """10**400 is a real number that no float holds: a ValueError naming the field, never an
    OverflowError from the conversion.  ``step_size`` and ``ar1_filter`` are controls, whose
    range checks reject it first."""
    build, field = REAL_ARGUMENTS.get(
        call, (lambda v: solve_regularized(np.eye(2), v, np.ones(2)), "regularization")
    )
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        build(10**400)

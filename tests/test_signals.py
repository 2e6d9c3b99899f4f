"""Scenario synthesis: impulse responses, excitation, noise, misalignment."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter  # the independent reference for ar1_filter's bits

from bspapa import signals
from bspapa import (
    EchoScenario,
    ImpulseResponse,
    ar1_filter,
    gen_excitation,
    make_block_sparse_ir,
    misalignment_db,
    scale_noise_for_snr,
)


class TestImpulseResponse:
    def test_one_cluster_support(self):
        ir = make_block_sparse_ir(1024, [(257, 288)], seed=1)
        nz = np.nonzero(ir.taps)[0]
        assert nz.size == 32
        assert nz[0] == 256 and nz[-1] == 287  # 0-based positions of taps 257..288

    def test_two_cluster_support(self):
        ir = make_block_sparse_ir(1024, [(257, 288), (769, 800)], seed=2)
        assert np.count_nonzero(ir.taps) == 64
        mask = ir.support_mask()
        assert mask[256:288].all() and mask[768:800].all()
        assert not mask[:256].any() and not mask[288:768].any() and not mask[800:].any()

    def test_small_support_mask(self):
        ir = make_block_sparse_ir(8, [(3, 4)], seed=3)
        np.testing.assert_array_equal(ir.taps != 0.0, [0, 0, 1, 1, 0, 0, 0, 0])

    def test_deterministic_per_seed(self):
        a = make_block_sparse_ir(64, [(5, 12)], seed=9)
        b = make_block_sparse_ir(64, [(5, 12)], seed=9)
        c = make_block_sparse_ir(64, [(5, 12)], seed=10)
        np.testing.assert_array_equal(a.taps, b.taps)
        assert np.any(a.taps != c.taps)

    @pytest.mark.parametrize(
        "clusters", [[(0, 4)], [(5, 3)], [(60, 70)], [(1, 8), (4, 12)]]
    )
    def test_invalid_ranges_rejected(self, clusters):
        with pytest.raises(ValueError):
            make_block_sparse_ir(64, clusters, seed=0)

    def test_nonzero_outside_cluster_rejected(self):
        taps = np.zeros(8)
        taps[0] = 1.0
        with pytest.raises(ValueError):
            ImpulseResponse(taps, ((3, 4),))

    @pytest.mark.parametrize("cluster", [(1.5, 8), (True, 8), ("3", 8), (1, 8.0), (np.bool_(True), 8)])
    def test_non_integer_endpoints_rejected(self, cluster):
        with pytest.raises(ValueError, match="endpoints must be integers"):
            make_block_sparse_ir(64, [cluster], seed=1)

    @pytest.mark.parametrize("length", [0, -3])
    def test_non_positive_length_names_filter_length(self, length):
        with pytest.raises(ValueError, match=f"filter_length must be positive, got {length}"):
            make_block_sparse_ir(length, [(1, 1)], seed=1)

    def test_numpy_integer_endpoints_accepted(self):
        ir = make_block_sparse_ir(64, [(np.int64(1), np.int32(8))], seed=1)
        assert ir.cluster_spec == ((1, 8),)
        assert all(type(v) is int for v in ir.cluster_spec[0])
        np.testing.assert_array_equal(ir.taps, make_block_sparse_ir(64, [(1, 8)], seed=1).taps)

    def test_clusters_validated_once_per_response(self, monkeypatch):
        calls = []
        original = signals._validated_clusters
        monkeypatch.setattr(
            signals, "_validated_clusters", lambda *args: calls.append(args) or original(*args)
        )
        make_block_sparse_ir(64, [(5, 12), (33, 40)], seed=1)
        assert len(calls) == 1


class TestExcitation:
    def test_ar1_impulse_response_is_geometric(self):
        driving = np.zeros(6)
        driving[0] = 1.0
        out = ar1_filter(driving, 0.8)
        np.testing.assert_allclose(out, [1.0, 0.8, 0.64, 0.512, 0.4096, 0.32768], rtol=1e-14)

    def test_ar1_zero_driving(self):
        np.testing.assert_array_equal(ar1_filter(np.zeros(16), 0.8), np.zeros(16))

    def test_ar1_pole_bounds(self):
        with pytest.raises(ValueError):
            ar1_filter(np.zeros(4), 1.0)

    @pytest.mark.parametrize("pole", [0.8, -0.9, 0.0, 0.999])
    @pytest.mark.parametrize("length", [1, 7, 4000])
    def test_ar1_has_the_bits_of_lfilter(self, pole, length):
        driving = np.random.default_rng(length).standard_normal(length)
        out, ref = ar1_filter(driving, pole), lfilter([1.0], [1.0, -pole], driving)
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        driving=st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])
            | st.floats(-1e300, 1e300, allow_subnormal=True),
            max_size=12,
        ),
        pole=st.sampled_from([0.8, -0.9, 0.0, -0.0, 1e-10, -1e-10, 0.999]),
    )
    def test_ar1_bits_hold_for_signed_zeros_and_subnormals(self, driving, pole):
        driving = np.array(driving, dtype=float)
        ref = lfilter([1.0], [1.0, -pole], driving) if driving.size else np.empty(0)
        assert ar1_filter(driving, pole).tobytes() == ref.tobytes()

    def test_ar1_accepts_an_empty_sequence(self):
        out = ar1_filter([], 0.8)
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("driving", [np.zeros((2, 3)), np.float64(1.0), np.zeros((4, 1))])
    def test_ar1_rejects_a_shape_that_is_not_1d(self, driving):
        with pytest.raises(ValueError, match=re.escape(f"1-D sequence, got shape {np.shape(driving)}")):
            ar1_filter(driving, 0.8)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_ar1_rejects_a_non_finite_sample_by_index(self, bad):
        # one bad sample poisons every later one ([1, inf, nan, nan] from lfilter), and the
        # plain y = pole*y + w would give [1, inf, inf, inf]: refuse it, naming the sample
        with pytest.raises(ValueError, match="sample 1 is not finite"):
            ar1_filter([1.0, bad, 0.5, 0.2], 0.8)

    def test_lag_one_autocorrelation(self):
        x = gen_excitation(100_000, seed=321, kind="ar1", pole=0.8)
        lag0 = float(x[:-1] @ x[:-1])
        lag1 = float(x[:-1] @ x[1:])
        assert 0.78 <= lag1 / lag0 <= 0.82

    def test_white_is_unit_variance(self):
        x = gen_excitation(200_000, seed=5, kind="white")
        assert abs(x.var() - 1.0) < 0.02

    def test_stable_over_long_runs(self):
        x = gen_excitation(1_000_000, seed=6, kind="ar1", pole=0.8)
        assert np.isfinite(x).all()
        assert np.abs(x).max() < 50.0

    def test_deterministic(self):
        a = gen_excitation(500, seed=7, kind="ar1", pole=0.8)
        b = gen_excitation(500, seed=7, kind="ar1", pole=0.8)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gen_excitation(0, seed=1)
        with pytest.raises(ValueError):
            gen_excitation(10, seed=1, kind="pink")
        with pytest.raises(ValueError):
            gen_excitation(10, seed=1, kind="ar1", pole=None)


class TestNoiseScaling:
    def test_zero_db_matches_signal_power(self):
        rng = np.random.default_rng(22)
        clean = rng.standard_normal(4096) * 3.0
        noise = scale_noise_for_snr(clean, 0.0, seed=23)
        np.testing.assert_allclose(np.mean(noise**2), np.mean(clean**2), rtol=1e-12)

    def test_thirty_db(self):
        rng = np.random.default_rng(24)
        clean = rng.standard_normal(4096)
        noise = scale_noise_for_snr(clean, 30.0, seed=25)
        np.testing.assert_allclose(np.mean(clean**2) / np.mean(noise**2), 1000.0, rtol=1e-12)

    def test_scale_covariance(self):
        rng = np.random.default_rng(26)
        clean = rng.standard_normal(1024)
        base = scale_noise_for_snr(clean, 10.0, seed=27)
        doubled = scale_noise_for_snr(2.0 * clean, 10.0, seed=27)
        np.testing.assert_allclose(np.mean(doubled**2), 4.0 * np.mean(base**2), rtol=1e-12)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            scale_noise_for_snr(np.zeros(16), 30.0, seed=1)
        with pytest.raises(ValueError):
            scale_noise_for_snr([], 30.0, seed=1)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, np.float64(4000.0), 1e308])
    def test_extreme_snr_names_snr_db(self, snr_db):
        # 10**400 overflows and 10**-400 underflows to zero; neither may escape as
        # OverflowError or ZeroDivisionError.
        with pytest.raises(ValueError, match="snr_db"):
            scale_noise_for_snr(np.ones(16), snr_db, seed=1)


class TestMisalignment:
    def test_zero_estimate_is_zero_db(self):
        h = np.array([1.0, -2.0, 0.5])
        assert misalignment_db(h, np.zeros(3)) == 0.0

    def test_exact_match_hits_floor(self):
        h = np.array([1.0, -2.0, 0.5])
        assert misalignment_db(h, h) == -300.0

    def test_ninety_percent_estimate(self):
        h = np.random.default_rng(28).standard_normal(16)
        assert misalignment_db(h, 0.9 * h) == pytest.approx(-20.0, abs=1e-12)

    def test_zero_true_system_rejected(self):
        with pytest.raises(ValueError):
            misalignment_db(np.zeros(4), np.ones(4))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            misalignment_db(np.ones(4), np.ones(5))

    @pytest.mark.parametrize("true_h,est_h,name", [
        (None, None, "true_h"), (np.ones(3), 1j * np.ones(3), "est_h"), (1j * np.ones(3), np.ones(3), "true_h"),
        (["1", "2"], np.ones(2), "true_h"), (np.ones(2), [True, False], "est_h")],
        ids=["none", "complex estimate", "complex truth", "str", "bool"])
    def test_complex_or_non_numeric_input_is_rejected_by_name(self, true_h, est_h, name):
        """None used to raise "'float' object is not iterable", and a complex estimate lost its
        imaginary part with only a ComplexWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must hold real numbers"):
                misalignment_db(true_h, est_h)


class TestSeeds:
    CALLS = {
        "gen_excitation": lambda seed: gen_excitation(10, seed),
        "make_block_sparse_ir": lambda seed: make_block_sparse_ir(16, [(2, 5)], seed=seed),
        "scale_noise_for_snr": lambda seed: scale_noise_for_snr(np.ones(8), 10.0, seed),
    }

    @pytest.mark.parametrize("seed", [1.5, 0.3, True, np.float64(2.0), -1, "3", None, np.nan])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_a_seed_that_is_not_an_integer_at_least_zero_is_rejected_by_name(self, call, seed):
        """A float seed used to raise numpy's "SeedSequence expects int" TypeError, and True
        ran as seed 1."""
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
            call(seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(7), 2**64])
    def test_every_integer_at_least_zero_is_a_seed(self, seed):
        expected = np.random.default_rng(int(seed)).standard_normal(10)
        np.testing.assert_array_equal(gen_excitation(10, seed), expected)


class TestEchoScenario:
    def ir(self, seed=1):
        return make_block_sparse_ir(16, [(3, 6)], seed=seed)

    def test_segments(self):
        sc = EchoScenario(
            schedule=((0, self.ir(1)), (100, self.ir(2))),
            excitation="white",
            pole=None,
            snr_db=None,
            seed=0,
            total_samples=250,
        )
        segs = sc.segments()
        assert [(s, e) for s, e, _ in segs] == [(0, 100), (100, 250)]
        assert sc.filter_length == 16

    def test_first_entry_must_start_at_zero(self):
        with pytest.raises(ValueError):
            EchoScenario(schedule=((5, self.ir()),), total_samples=10)

    def test_switches_must_increase(self):
        with pytest.raises(ValueError):
            EchoScenario(
                schedule=((0, self.ir(1)), (50, self.ir(2)), (50, self.ir(3))),
                total_samples=100,
            )

    def test_switch_past_end_rejected(self):
        with pytest.raises(ValueError):
            EchoScenario(schedule=((0, self.ir(1)), (100, self.ir(2))), total_samples=100)

    def test_mixed_lengths_rejected(self):
        short = make_block_sparse_ir(8, [(3, 4)], seed=4)
        with pytest.raises(ValueError):
            EchoScenario(schedule=((0, self.ir()), (10, short)), total_samples=20)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            EchoScenario(schedule=((0, self.ir()),), seed=-1, total_samples=10)

    @pytest.mark.parametrize("switch", [20.7, 20.0, "20", True, None])
    def test_non_integer_switch_sample_rejected(self, switch):
        with pytest.raises(ValueError, match=r"^schedule switch samples must be integers, got "):
            EchoScenario(schedule=((0, self.ir(1)), (switch, self.ir(2))), total_samples=40)

    @pytest.mark.parametrize("field", ["seed", "total_samples"])
    @pytest.mark.parametrize("value", [1.5, 40.0, "40", True, None])
    def test_non_integer_seed_or_length_rejected(self, field, value):
        kwargs = {"seed": 1, "total_samples": 40, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
            EchoScenario(schedule=((0, self.ir()),), **kwargs)

    def test_numpy_integers_become_ints(self):
        sc = EchoScenario(schedule=((np.int64(0), self.ir(1)), (np.int32(20), self.ir(2))),
                          seed=np.uint8(3), total_samples=np.int64(40))
        assert [(type(s), s) for s, _ in sc.schedule] == [(int, 0), (int, 20)]
        assert (type(sc.seed), sc.seed, type(sc.total_samples), sc.total_samples) == (int, 3, int, 40)

    def test_ar1_needs_valid_pole(self):
        with pytest.raises(ValueError):
            EchoScenario(schedule=((0, self.ir()),), excitation="ar1", pole=1.5, total_samples=10)

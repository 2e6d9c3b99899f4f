"""Synthetic world for system-identification experiments.

Block-sparse impulse responses, white or first-order-colored excitation,
measurement noise calibrated to a target SNR, and the normalized
misalignment metric.  Everything is seeded and deterministic so runs can
be reproduced byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gains import _as_float, _is_integer, _is_real, _real_array

__all__ = [
    "ImpulseResponse",
    "EchoScenario",
    "make_block_sparse_ir",
    "gen_excitation",
    "ar1_filter",
    "scale_noise_for_snr",
    "misalignment_db",
]

MISALIGNMENT_FLOOR_DB = -300.0


def _validated_clusters(clusters, filter_length: int) -> tuple[tuple[int, int], ...]:
    """Normalize 1-based inclusive (start, end) integer ranges; reject bad layouts."""
    spec = []
    for start, end in clusters:
        if not (_is_integer(start) and _is_integer(end)):
            raise ValueError(f"cluster ({start!r}, {end!r}): endpoints must be integers")
        start, end = int(start), int(end)
        if not 1 <= start <= end <= filter_length:
            raise ValueError(
                f"cluster ({start}, {end}) outside the valid tap range [1, {filter_length}]"
            )
        spec.append((start, end))
    ordered = sorted(spec)
    for (_, prev_end), (next_start, _) in zip(ordered, ordered[1:]):
        if next_start <= prev_end:
            raise ValueError(f"clusters overlap near tap {next_start}")
    return tuple(spec)


@dataclass(frozen=True, eq=False)
class ImpulseResponse:
    """True system coefficients whose support is a set of tap clusters.

    ``cluster_spec`` uses 1-based inclusive tap ranges; taps outside every
    cluster must be exactly zero.
    """

    taps: np.ndarray
    cluster_spec: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=float)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("taps must be a nonempty 1-D vector")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "cluster_spec", _validated_clusters(self.cluster_spec, taps.size))
        if np.any(taps[~self.support_mask()] != 0.0):
            raise ValueError("taps outside the declared clusters must be exactly zero")

    @property
    def filter_length(self) -> int:
        return self.taps.size

    def support_mask(self) -> np.ndarray:
        mask = np.zeros(self.filter_length, dtype=bool)
        for start, end in self.cluster_spec:
            mask[start - 1 : end] = True
        return mask


def _generator(seed) -> np.random.Generator:
    """numpy's generator for ``seed``, an integer >= 0 by :func:`~bspapa.gains._is_integer`;
    anything else, where numpy would raise a TypeError or take True as 1, is a ValueError."""
    if not (_is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def make_block_sparse_ir(filter_length: int, clusters, seed: int) -> ImpulseResponse:
    """Impulse response with standard-normal taps inside the given clusters.

    Cluster taps are drawn in the order the clusters are listed, so the
    response is fully determined by ``(filter_length, clusters, seed)``.
    """
    if not _is_integer(filter_length):
        raise ValueError(f"filter_length must be an integer, got {filter_length!r}")
    if filter_length < 1:
        raise ValueError(f"filter_length must be positive, got {filter_length}")
    response = ImpulseResponse(np.zeros(filter_length), clusters)  # validates the clusters
    rng = _generator(seed)
    for start, end in response.cluster_spec:
        response.taps[start - 1 : end] = rng.standard_normal(end - start + 1)
    return response


def ar1_filter(driving, pole: float) -> np.ndarray:
    """Run ``y(n) = pole * y(n-1) + w(n)`` over ``driving`` with y(-1) = 0.

    ``driving`` is a 1-D sequence of finite samples (it may be empty).  The
    recursion runs in the transposed direct form of the classical one-pole
    filter routines (``lfilter([1], [1, -pole], w)``): each output is the
    carried state plus the new sample, and the next state is
    ``w(n)*0 + pole*y(n)``.  The zero term only settles the sign of an
    exactly-zero state, so every sample, signed zeros included, has the
    bits of those routines.
    """
    if not _is_real(pole):
        raise ValueError(f"AR(1) pole must be a real number, got {pole!r}")
    if not -1.0 < pole < 1.0:
        raise ValueError(f"AR(1) pole must satisfy |pole| < 1, got {pole}")
    samples = np.asarray(driving, dtype=float)
    if samples.ndim != 1:
        raise ValueError(f"AR(1) driving must be a 1-D sequence, got shape {samples.shape}")
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ValueError(f"AR(1) driving sample {bad[0]} is not finite: {samples[bad[0]]}")
    pole, state, out = float(pole), 0.0, []
    for w in samples.tolist():  # Python floats: one rounding per operation, as in C
        y = state + w
        state = w * 0.0 + pole * y
        out.append(y)
    return np.array(out, dtype=float)


def gen_excitation(n_samples: int, seed: int, kind: str = "white", pole: float | None = None) -> np.ndarray:
    """Seeded excitation: unit-variance white noise, optionally AR(1)-colored.

    ``kind="ar1"`` filters the white sequence through a one-pole recursion,
    which is how colored speech-like test signals are usually produced.
    """
    if not (_is_integer(n_samples) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    white = _generator(seed).standard_normal(n_samples)
    if kind == "white":
        return white
    if kind == "ar1":
        if pole is None:
            raise ValueError("ar1 excitation requires a pole")
        return ar1_filter(white, pole)
    raise ValueError(f"unknown excitation kind {kind!r}; expected 'white' or 'ar1'")


def scale_noise_for_snr(clean_echo, snr_db: float, seed: int) -> np.ndarray:
    """White Gaussian noise scaled so the clean/noise power ratio hits ``snr_db``.

    The scaling uses the realized (empirical) powers of both vectors, so
    the requested SNR holds exactly for this realization rather than in
    expectation.
    """
    if not _is_real(snr_db):
        raise ValueError(f"snr_db must be a real number, got {snr_db!r}")
    clean = np.asarray(clean_echo, dtype=float)
    if clean.size == 0:
        raise ValueError("clean_echo must be nonempty")
    clean_power = float(np.mean(clean * clean))
    if clean_power == 0.0:
        raise ValueError("clean_echo has zero power; SNR scaling is undefined")
    raw = _generator(seed).standard_normal(clean.size)
    raw_power = float(np.mean(raw * raw))
    try:  # at an extreme snr_db the power ratio overflows or the noise power underflows
        target_power = clean_power / 10.0 ** (float(snr_db) / 10.0)
    except (OverflowError, ZeroDivisionError):
        target_power = 0.0
    if not 0.0 < target_power < math.inf:
        raise ValueError(f"snr_db={snr_db} puts the noise power outside the positive floats")
    return raw * np.sqrt(target_power / raw_power)


def misalignment_db(true_h, est_h) -> float:
    """Normalized misalignment 10*log10(||h - h_est||^2 / ||h||^2), floored at -300 dB.

    A non-finite estimate gives NaN or +inf, never a finite value.  Both arguments must hold
    real numbers (see :func:`~bspapa.gains._real_array`).
    """
    h, w = _real_array(true_h, "true_h"), _real_array(est_h, "est_h")
    if h.shape != w.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {w.shape}")
    return _misalignment_rows(h, _power(h), w[None])[0]


def _power(true_h: np.ndarray) -> float:
    """``||h||^2`` of a float vector, the misalignment's reference; zero is refused."""
    # np.dot: the same BLAS dot as ``@`` on vectors, minus the ufunc dispatch
    power = float(np.dot(true_h, true_h))
    if power == 0.0:
        raise ValueError("true system has zero norm; misalignment is undefined")
    return power


def _misalignment_rows(true_h: np.ndarray, power: float, est_rows: np.ndarray, out=None) -> list:
    """``misalignment_db`` of each row of ``est_rows``, given ``power = _power(true_h)``; no checks.
    ``out``, of the shape of ``est_rows``, is an optional C-contiguous buffer, with the same bits."""
    return _decibels((_squared_errors(true_h, est_rows, out) / power).tolist())


def _squared_errors(true_h: np.ndarray, est_rows: np.ndarray, out=None) -> np.ndarray:
    """``||h - w||^2`` of each row ``w`` of ``est_rows``, as :func:`_misalignment_rows` forms it."""
    diff = np.subtract(est_rows, true_h, out=out)
    return np.vecdot(diff, diff)  # vecdot: the per-row BLAS dot's bits


def _decibels(ratios: list) -> list:
    """``10*log10`` of each misalignment ratio, floored at ``MISALIGNMENT_FLOOR_DB``."""
    # 10*log10(1e-30) is the floor itself
    return [MISALIGNMENT_FLOOR_DB if r <= 1e-30 else 10.0 * math.log10(r) for r in ratios]


@dataclass(frozen=True, eq=False)
class EchoScenario:
    """Schedule of true responses plus the excitation and noise description.

    ``schedule`` lists ``(switch_sample, response)`` pairs sorted by switch
    sample, the first at sample 0; the response stays active until the next
    switch.  ``snr_db=None`` disables measurement noise entirely (useful
    for noiseless sanity checks).
    """

    schedule: tuple
    excitation: str = "ar1"
    pole: float | None = 0.8
    snr_db: float | None = 30.0
    seed: int = 0
    total_samples: int = 1

    def __post_init__(self) -> None:
        for s, _ in self.schedule:
            if not _is_integer(s):
                raise ValueError(f"schedule switch samples must be integers, got {s!r}")
        for name in ("seed", "total_samples"):
            if not _is_integer(value := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("pole", "snr_db"):
            if (value := getattr(self, name)) is not None:
                if not _is_real(value):
                    raise ValueError(f"{name} must be a real number or None, got {value!r}")
                object.__setattr__(self, name, _as_float(value, name))
        entries = tuple((int(s), r) for s, r in self.schedule)
        if not entries:
            raise ValueError("schedule must contain at least one response")
        if entries[0][0] != 0:
            raise ValueError("the first schedule entry must start at sample 0")
        switches = [s for s, _ in entries]
        if any(b <= a for a, b in zip(switches, switches[1:])):
            raise ValueError("schedule switch samples must be strictly increasing")
        length = entries[0][1].filter_length
        if any(r.filter_length != length for _, r in entries):
            raise ValueError("all scheduled responses must share one filter length")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.total_samples < 1:
            raise ValueError(f"total_samples must be >= 1, got {self.total_samples}")
        if switches[-1] >= self.total_samples:
            raise ValueError("schedule switches past the end of the run")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite (or None for no noise), got {self.snr_db}")
        if self.excitation not in ("white", "ar1"):
            raise ValueError(f"unknown excitation {self.excitation!r}")
        if self.excitation == "ar1":
            if self.pole is None or not -1.0 < self.pole < 1.0:
                raise ValueError(f"ar1 excitation needs a pole with |pole| < 1, got {self.pole}")
        object.__setattr__(self, "schedule", entries)

    @property
    def filter_length(self) -> int:
        return self.schedule[0][1].filter_length

    def segments(self) -> list[tuple[int, int, ImpulseResponse]]:
        """(start, end, response) triples covering [0, total_samples)."""
        starts = [s for s, _ in self.schedule]
        ends = starts[1:] + [self.total_samples]
        return [(s, e, r) for (s, r), e in zip(self.schedule, ends)]

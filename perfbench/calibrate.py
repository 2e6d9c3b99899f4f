"""Machine-speed calibration: fixed kernels timed beside the workload.

The benchmark runs on a few cores of a shared host whose speed moves by a
third within minutes as other tenants come and go.  Whatever slows the
workload slows these kernels too, so ``run.py`` times them between
stretches of timed work and divides each stretch's time by the slowdown
they show (``cal_us_per_filter_sample``, ``setup_s``).  The kernels are
frozen here and use no part of bspapa: a change to the package moves the
workload's time, never the calibration's.

The kernels mirror what the workloads spend their time on: an interpreter
loop, short numpy vector operations, a 4096x16 Gram product (threaded by
BLAS, as long-echo's is) and a per-sample NLMS loop over 1024 taps.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(1601)
_a = _rng.standard_normal(1024)
_b = _rng.standard_normal(1024)
_tall = _rng.standard_normal((4096, 16))
_x = _rng.standard_normal(2000)
_d = _rng.standard_normal(2000)


def _interpreter() -> None:
    s = 0
    for i in range(600_000):
        s += i * i % 7


def _vector_ops() -> None:
    for _ in range(8_000):
        c = _a * _b
        float(_a @ _b)
        np.abs(c).sum()


def _gram() -> None:
    for _ in range(500):
        _tall.T @ _tall


def _nlms() -> None:
    w = np.zeros(1024)
    window = np.zeros(1024)
    for _ in range(3):
        for k in range(_x.size):
            window[1:] = window[:-1]
            window[0] = _x[k]
            e = _d[k] - w @ window
            w += (0.5 * e / (window @ window + 1e-3)) * window


# Seconds each kernel takes on the reference machine (2 vCPUs of an Intel
# Xeon with AVX-512, numpy 2.4 with OpenBLAS 0.3.31 at 2 threads), rounded
# medians over several minutes.  ``factor()`` is 1 at that speed; the
# constants only set the scale.
KERNELS = {
    "interpreter": (_interpreter, 0.060),
    "vector_ops": (_vector_ops, 0.055),
    "gram": (_gram, 0.050),
    "nlms": (_nlms, 0.050),
}

_warm = False


def factor() -> float:
    """The machine's slowdown now against the reference: mean over kernels of time / reference time."""
    global _warm
    if not _warm:
        for kernel, _ in KERNELS.values():
            kernel()
        _warm = True
    ratios = []
    for kernel, reference in KERNELS.values():
        t0 = time.perf_counter()
        kernel()
        ratios.append((time.perf_counter() - t0) / reference)
    return sum(ratios) / len(ratios)


if __name__ == "__main__":
    factor()
    for name, (kernel, reference) in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        print(f"{name:<12} {time.perf_counter() - t0:.4f} s (reference {reference} s)")

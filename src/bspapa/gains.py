"""Proportionate gain rules shared by the whole adaptive filter family.

The filter weights are split into contiguous blocks; each block receives a
gain proportional to its Euclidean norm, floored so that no block ever
stalls at zero, and normalized so the gains average to one.  A group size
of one tap reproduces the classical per-coefficient proportionate rule,
while a single group spanning the whole filter degenerates to a uniform
(identity) gain.

This module holds the partition, the guards and the rule's two halves,
block norms then floored gains.  The public way to compute a filter's gains
is :func:`bspapa.filters.variant_gains`, keyed by its ``FilterConfig``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockPartition",
    "StallGuards",
    "GainVector",
]


def _is_integer(value) -> bool:
    """An int or a numpy integer; a bool is not one.  Filter sizes and cluster endpoints both follow it."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int, a float or a numpy integer or float; a bool is not one.  Real-valued settings and
    the samples a stream pushes follow it; a float, numpy's float64 among them, takes one test."""
    return isinstance(value, float) or (isinstance(value, (int, np.integer, np.floating))
                                        and not isinstance(value, bool))


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array, if numpy holds it as integers or floats; a bool, complex,
    string or object array, which a float conversion would read, clip or drop part of, is a
    ValueError naming ``name``."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got an array of dtype {array.dtype}")
    return array.astype(float, copy=False)


def _real_scalar(value, name: str) -> float:
    """``value``, a real number by :func:`_is_real`, as a Python float; anything else, and an
    integer past the float range, is a ValueError naming ``name``.  For values that are not
    floats: a per-sample caller tests ``isinstance(value, float)`` first."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real scalar, got {value!r}")
    return _as_float(value, name)


def _as_float(value, name: str) -> float:
    """``value``, a real number by :func:`_is_real`, as a Python float.  An integer past the
    float range, where ``float`` raises ``OverflowError``, is a ValueError naming ``name``."""
    try:
        return float(value)
    except OverflowError:
        bound = f"magnitude at most {sys.float_info.max:.6g}"
        raise ValueError(f"{name} lies beyond the float range ({bound})") from None


@dataclass(frozen=True)
class BlockPartition:
    """Split of ``filter_length`` taps into contiguous groups of ``group_size``.

    The split must be exact: a filter length that is not a multiple of the
    group size is rejected rather than padded, since silent zero padding
    would distort the trailing block norm.
    """

    filter_length: int
    group_size: int

    def __post_init__(self) -> None:
        if not (_is_integer(self.filter_length) and self.filter_length >= 1):
            raise ValueError(f"filter_length must be a positive integer, got {self.filter_length!r}")
        if not (_is_integer(self.group_size) and 1 <= self.group_size <= self.filter_length):
            raise ValueError(
                f"group_size must be an integer in [1, {self.filter_length}], got {self.group_size!r}"
            )
        if self.filter_length % self.group_size:
            raise ValueError(
                f"filter_length {self.filter_length} is not divisible by "
                f"group_size {self.group_size}"
            )

    @property
    def block_count(self) -> int:
        return self.filter_length // self.group_size


@dataclass(frozen=True)
class StallGuards:
    """Floors that keep proportionate gains strictly positive.

    ``q`` protects the all-zero initialization; ``rho`` keeps small blocks
    adapting when a single block dominates.
    """

    rho: float = 0.01
    q: float = 0.01

    def __post_init__(self) -> None:
        for name in ("rho", "q"):
            if not _is_real(value := getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value}")
            object.__setattr__(self, name, _as_float(value, name))


@dataclass(frozen=True, eq=False)
class GainVector:
    """Per-block proportionate gains together with their partition.

    The gains average to one over the blocks, so the expanded per-tap
    diagonal sums to the filter length.
    """

    block_gains: np.ndarray
    partition: BlockPartition

    def __post_init__(self) -> None:
        gains = _real_array(self.block_gains, "block_gains")
        if gains.shape != (self.partition.block_count,):
            raise ValueError(
                f"expected {self.partition.block_count} block gains, got shape {gains.shape}"
            )
        object.__setattr__(self, "block_gains", gains)

    def expand(self) -> np.ndarray:
        """Per-tap gain diagonal: each block gain repeated ``group_size`` times."""
        return np.repeat(self.block_gains, self.partition.group_size)


def _block_norms(weights: np.ndarray, group_size: int, out=None, squares=None) -> np.ndarray:
    """Block norms of a float weight vector whose length ``group_size`` divides; no checks.
    ``out`` (N floats) and ``squares`` (``(N, P)``) are optional buffers, with the same bits."""
    blocks = weights.reshape(-1, group_size)
    squares = np.multiply(blocks, blocks, out=squares)
    if 1 < group_size < 8:  # numpy adds a row this short in order: so do P-1 column adds
        sums = np.add(squares[:, 0], squares[:, 1], out=out)
        for column in squares.T[2:]:
            np.add(sums, column, out=sums)
    else:
        sums = np.add.reduce(squares, axis=1, out=out)  # ``.sum`` minus its wrapper
    return np.sqrt(sums, out=sums)


def _floored_gains(norms: np.ndarray, guards: StallGuards, out=None) -> np.ndarray:
    """Floored norms normalized by their mean, for a nonempty nonnegative float vector; no checks.
    ``out`` is an optional buffer of the norms' shape, which may be ``norms`` itself.  The max is
    taken by ``argmax``, which finds the first NaN: ``max(q, nan)`` is q as after a reduce, cheaper."""
    floor = guards.rho * max(guards.q, norms[norms.argmax()])
    gamma = np.maximum(floor, norms, out=out)
    # The same add-reduce and divide as gamma.mean(), without its dispatch.
    gamma /= np.add.reduce(gamma) / gamma.size
    return gamma

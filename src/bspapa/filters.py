"""Per-sample update engines for the proportionate affine projection family.

Every variant name is an alias over three axes of one block-sparse update
(``_ALIASES``): the group size (one full-length block for ``apa``, one tap
for ``papa``/``mpapa``/``pnlms``, a chosen P for the ``bs-*`` members),
regressor memory (``mpapa``/``bs-mpapa`` keep previously weighted columns
with their historical gains instead of reweighting the whole window), and
the projection order (pinned to one for ``pnlms``/``bs-pnlms``).

All projection members share one update: with ``W`` the gain-weighted
regressor, ``h += mu * W @ solve(X.T @ W + delta*I, e)``.  The
single-projection members apply the scalar-normalized form of the same step
and skip the linear solve.

One kernel, ``_Batch``, takes the step for B filters that share the filter
length, the projection order and the branch, over one input history: the
error, Gram and update products are stacked over the filters, with one
pivot test per step.  A single-projection batch is only its rows, ``_ScalarRow`` steps
that read x(n) and d(n) themselves.  ``filter_step`` and ``AdaptiveFilter`` run the batch
of one a ``FilterState`` keeps, a lone ``_ScalarRow`` for ``pnlms``/``bs-pnlms``;
``_panel_batches`` builds the zeroed batches of a panel, which ``run_experiment`` streams.
From ``_RECURSE_FROM`` on, a panel's batch takes the fast affine projection
recursions: of its M errors only e(n)[0] is a product, and the Gram matrix of
a unit-gain or memory row is last step's, shifted, with a new row 0 and column 0.
A gained row with P and M from ``_SUM_FROM`` on builds no W there: its Gram
matrix X.T G X = sum_k g_k R_k reads every block correlation R_k from a ring of
lag vectors, one fresh P-term product a step, and its update is g * (X(n) z).
The same ring, one per group size, gives a unit-gain row, and a memory row of
such P, its new row and column 0 as sums of N lag vectors.  The ring has the
history's period and is addressed by the history's head.

A single block has gain exactly one, so its W is X(n) itself, which the history
serves as a C-contiguous view (``RegressorHistory._first_rows``).  Every
other row that builds W weights that view in place: M*L products, each block
gain copied over its rows, then one multiply.  That gives the bits of the
paper's (P+M-1)*N-product build, :func:`build_weighted_regressor_efficient`.
Every row computes its gains in buffers made once per batch, through the same
gain rule as :func:`variant_gains`.

The projection systems are factored and solved by LAPACK's ``dgetrf`` and
``dgetrs``, from scipy's f2py extension ``scipy/linalg/_flapack*.so``.  It
is loaded from its file as ``bspapa._flapack`` (see :func:`_load_flapack`),
so ``import bspapa`` does not run the ``scipy.linalg`` package.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .gains import BlockPartition, GainVector, StallGuards
from .gains import _as_float, _block_norms, _floored_gains, _is_integer, _is_real, _real_array
from .signals import _decibels, _misalignment_rows, _power, _squared_errors

__all__ = [
    "VARIANTS",
    "SingularSystemError",
    "FilterConfig",
    "FilterState",
    "RegressorHistory",
    "WeightedRegressor",
    "AdaptiveFilter",
    "build_weighted_regressor_direct",
    "build_weighted_regressor_efficient",
    "update_memory_regressor",
    "solve_regularized",
    "variant_gains",
    "filter_step",
]

# name -> (group size, memory, projection order).  A group size of "full"
# is one block spanning the filter; None leaves the axis to the caller.
_ALIASES = {
    "apa": ("full", False, None),
    "papa": (1, False, None),
    "bs-papa": (None, False, None),
    "mpapa": (1, True, None),
    "bs-mpapa": (None, True, None),
    "bs-pnlms": (None, False, 1),
    "pnlms": (1, False, 1),
}
VARIANTS = tuple(_ALIASES)
_EPS = float(np.finfo(float).eps)
# The gain of a single block spanning the filter: its floored norm over itself.
_UNIT_GAIN = np.ones(1)
_UNIT_GAIN.flags.writeable = False
# A recursive batch sums a gained row's block correlations from a lag ring,
# rather than weighting X(n), where both P and M reach this (see _lag_group):
# the cut from which the paper's build beat in-place weighting, and below
# which a memory row's sums are slower than its gemvs (see the README).
_SUM_FROM = 16
# A panel's batch forms its errors and its unit-gain and memory rows' Gram
# matrices recursively from this projection order on: only there is it faster.
_RECURSE_FROM = 16
# A unit-gain row's streamed misalignment is formed exactly from its weights whenever its
# running value falls below this share of its last exact value, and on every sample below
# this share of ||h||^2 (-100 dB), where the recursion's relative accuracy nears 1e-9 dB
# (see the README).
_EXACT_DROP = 1e-2
_EXACT_BELOW = 1e-10


def _load_flapack():
    """scipy's f2py LAPACK extension, loaded from its file under a private name.

    ``scipy.linalg.lapack`` hands out the same wrappers over the same
    OpenBLAS, but importing it runs the whole ``scipy.linalg`` package, which
    would be most of the time and memory ``import bspapa`` takes (see the
    README).  ``find_spec`` of the top-level ``scipy`` package locates it
    without running it, and the extension's init symbol, ``PyInit__flapack``,
    follows from the last part of the name.  A later ``import scipy.linalg``
    loads a module object of its own over the same library.
    """
    name = f"{__package__}._flapack"
    scipy = find_spec("scipy")
    folders = [os.path.join(p, "linalg") for p in scipy.submodule_search_locations] if scipy else []
    for folder in folders:
        spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is not None:
            break
    else:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {folders}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dgetrf, dgetrs = _flapack.dgetrf, _flapack.dgetrs


class SingularSystemError(np.linalg.LinAlgError):
    """Projection system singular to working precision."""

    def __init__(self, message: str, pivot: float):
        super().__init__(message)
        self.pivot = pivot

    def __reduce__(self):
        # the default passes only the message back to __init__
        return type(self), (*self.args, self.pivot), self.__dict__


@dataclass(frozen=True)
class FilterConfig:
    """Static description of one adaptive filter.

    The variant name pins the axes it implies (see the module table):
    ``apa`` forces a single full-length block, ``papa``/``mpapa``/``pnlms``
    force one-tap blocks, and the ``*-pnlms`` members require a projection
    order of one.  The block-sparse members need an explicit ``group_size``
    dividing ``filter_length``.  The weighted regressor always has the bits
    of the per-block product reuse build (see
    :func:`build_weighted_regressor_efficient`); the step kernel reaches
    them without a build where one would save nothing (see the module notes).
    """

    variant: str
    filter_length: int
    projection_order: int = 1
    group_size: int | None = None
    step_size: float = 0.01
    regularization: float = 0.01
    guards: StallGuards = StallGuards()
    # Read-only constant, not a field: perfbench/replay.py reads it.
    regressor_mode: ClassVar[str] = "efficient"

    def __post_init__(self) -> None:
        if self.variant not in _ALIASES:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        for name in ("filter_length", "projection_order", "group_size"):
            value = getattr(self, name)
            if not (_is_integer(value) or name == "group_size" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.projection_order < 1:
            raise ValueError(f"projection_order must be >= 1, got {self.projection_order}")
        for name in ("step_size", "regularization"):
            if not _is_real(value := getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        # step_size 0 is allowed: it freezes the filter, which is useful as a
        # null reference in benchmark panels.
        if not 0.0 <= self.step_size <= 2.0:
            raise ValueError(f"step_size must lie in [0, 2], got {self.step_size}")
        if not 0.0 <= self.regularization < math.inf:
            raise ValueError(f"regularization must be finite and nonnegative, got {self.regularization}")
        object.__setattr__(self, "step_size", float(self.step_size))
        object.__setattr__(self, "regularization", _as_float(self.regularization, "regularization"))
        if not isinstance(self.guards, StallGuards):
            raise ValueError(f"guards must be a StallGuards, got {self.guards!r}")
        group, _, order = _ALIASES[self.variant]
        if group is not None:
            group = self.filter_length if group == "full" else group
            if self.group_size not in (None, group):
                raise ValueError(
                    f"variant {self.variant!r} implies group_size={group}, got {self.group_size}"
                )
            object.__setattr__(self, "group_size", group)
        elif self.group_size is None:
            raise ValueError(f"variant {self.variant!r} requires an explicit group_size")
        if order is not None and self.projection_order != order:
            raise ValueError(
                f"variant {self.variant!r} is the projection_order={order} member, "
                f"got projection_order={self.projection_order}"
            )
        # validates the length and grouping; variant_gains reads it
        object.__setattr__(self, "partition", BlockPartition(self.filter_length, self.group_size))

    @property
    def block_count(self) -> int:
        return self.filter_length // self.group_size

    # cached: these are read every sample in the update loop
    @cached_property
    def is_memory(self) -> bool:
        return _ALIASES[self.variant][1]

    @cached_property
    def is_scalar(self) -> bool:
        return _ALIASES[self.variant][2] == 1

    @property
    def multiplications_per_step(self) -> int:
        """The paper's count of products building the weighted regressor each sample.

        This is the cost model of :func:`build_weighted_regressor_efficient`
        (L for the memory members), reported in the summaries'
        ``mults_per_step`` column.  The step kernel spends none of them on a
        single block of gain one (``apa``, ``bs-papa`` with P=L) and M*L on
        rows it weights in place; the column keeps the paper's count.
        """
        if self.is_memory:
            return self.filter_length
        return (self.group_size + self.projection_order - 1) * self.block_count


def _ring_shape(config: FilterConfig) -> tuple[int, int]:
    """The ``(2M, L)`` shape of a memory member's regressor ring (see :class:`FilterState`)."""
    return (2 * config.projection_order, config.filter_length)


@dataclass(eq=False)
class FilterState:
    """Mutable per-stream state: weights plus the memory-variant regressor.

    The memory members keep their regressor as a ring of M gain-weighted
    input rows mirrored at two offsets, shape ``(2M, L)``: rows
    ``memory_head .. memory_head + M - 1`` are the columns of the current
    L-by-M matrix, newest first.  A step writes one row (twice) instead of
    shifting the whole matrix, at the cost of M*L extra floats.  A step runs
    :class:`_Batch` over views of the arrays, rebuilt when the config or either
    array is another object; copies and pickles leave it out.
    """

    weights: np.ndarray
    memory_ring: np.ndarray | None = None
    memory_head: int = 0
    # (config, weights, memory_ring, batch): the batch of one _step last built, over those objects
    _batch = (None, None, None, None)

    @classmethod
    def initial(cls, config: FilterConfig) -> "FilterState":
        ring = np.zeros(_ring_shape(config)) if config.is_memory else None
        return cls(weights=np.zeros(config.filter_length), memory_ring=ring)

    @property
    def memory_regressor(self) -> np.ndarray | None:
        """The current L-by-M memory regressor, a column-major view of the ring."""
        ring = self.memory_ring
        if ring is None:
            return None
        head = self.memory_head
        return ring[head : head + ring.shape[0] // 2].T

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_batch"}

    def _step(self, config: FilterConfig, history: RegressorHistory, desired: np.ndarray) -> float:
        """One step of the batch of one: sync the head, raise the failure, return the error; no checks."""
        built, weights, ring, batch = self._batch
        if built is not config or weights is not self.weights or ring is not self.memory_ring:
            weights, ring = self.weights, self.memory_ring
            rings = np.empty((0, *_ring_shape(config))) if ring is None else ring[None]
            batch = (_ScalarRow(config, weights, np.empty(config.filter_length)) if config.is_scalar
                     else _Batch([config], weights[None], rings))
            self._batch = (config, weights, ring, batch)
        if config.is_scalar:
            prior, failed = batch(history, desired)
            if failed:
                raise failed
            return prior
        batch.head = self.memory_head
        prior, failed = batch.step(history, desired)
        self.memory_head = batch.head
        if failed:
            raise failed[0]
        return prior[0]


class RegressorHistory:
    """Sliding input window able to materialize the L-by-M regressor.

    Keeps the most recent ``filter_length + projection_order - 1`` samples
    in a ring buffer mirrored at two offsets, so the newest-first window is
    always one contiguous slice.  Samples earlier than the stream start read
    as zero.

    X(n).T is read from the ring stored M times, as the rows of one
    ``(M, 2*span)`` array, where row j is read starting j columns later.
    Row j of ``X(n).T`` then sits ``2*span + 1`` floats after row j - 1, so
    :meth:`regressor_matrix` is a view with unit stride along the taps,
    which BLAS accepts for the error and Gram products.  Rows 1..M-1 cost
    M - 1 more copies of the ring (about 1 MiB at L=4096, M=16) and 2(M-1)
    more writes a push, so the history keeps row 0 alone until X(n).T is
    first read whole (:meth:`regressor_matrix`, or the step kernel's
    :meth:`_transposed`), and makes the others then from the stored samples.
    Row 0 as a one-row X(n).T with the same strides is always there.

    Every array handed out is a view of the ring buffer, valid until the
    next push.  :meth:`regressor_matrix` indexes a read-only strided view
    built once per ring, so it costs one integer index per call.

    :meth:`_first_rows` serves the first R rows of X(n) C-contiguous, from a
    second ring of 2R rows of M floats, mirrored like the first under a head
    of its own: ring row ``head + i`` is row i of X(n), the M samples
    x(n - i) .. x(n - i - M + 1), for i < R.  The ring exists only once a
    caller has asked for R rows (the step kernel asks for all L where it
    multiplies by X(n), and for the P rows of its largest lag group where
    only a memory row's lag write reads them); a later call for more rows
    makes it again, from the stored samples.  From then on each push writes
    one row twice.  It costs ``2*R*M`` floats (0.13 MiB
    for R=L=1024, M=8; 1.0 MiB for R=L=4096, M=16; 16 KiB for R=P=64,
    M=16).
    """

    def __init__(self, filter_length: int, projection_order: int):
        if not (_is_integer(filter_length) and filter_length >= 1):
            raise ValueError(f"filter_length must be a positive integer, got {filter_length!r}")
        if not (_is_integer(projection_order) and projection_order >= 1):
            raise ValueError(f"projection_order must be an integer >= 1, got {projection_order!r}")
        self.filter_length = filter_length
        self.projection_order = projection_order
        span = filter_length + projection_order - 1
        self._span = span
        self._head = 0
        self._ring(np.zeros((1, 2 * span)))
        # the row ring, made by _first_rows(): its 2R rows, the two a push writes by head, its head, R
        self._rows = self._row_slots = None
        self._row_head = self._row_count = 0

    def _ring(self, rows: np.ndarray) -> None:
        """Serve every view from ``rows``, the ``(1, 2*span)`` or ``(M, 2*span)`` ring copies."""
        span, length, order = self._span, self.filter_length, self.projection_order
        step = rows.strides[1]
        self._buf = rows[0]
        # Entry h is the 2K slots a push at head position h writes, K rows: slot
        # 2j + k is column h + k*span of row j.
        self._slots = as_strided(rows, (span, 2 * len(rows)), (step, span * step))
        # Entry h is X(n).T for head position h: row j is x(n - j); _x0 is its row 0.
        skew = (step, (2 * span + 1) * step, step)
        self._x0 = as_strided(rows, (span, 1, length), skew, writeable=False)
        self._xt = as_strided(rows, (span, order, length), skew, writeable=False) if len(rows) == order else None

    def __getstate__(self) -> tuple:
        """(L, M, head, one ring row): the ring copies are equal, and every view is rebuilt."""
        return self.filter_length, self.projection_order, self._head, self._buf.copy()

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state[:2])
        self._head, self._buf[:] = state[2:]

    def push(self, sample: float) -> None:
        """Append ``sample``, a real scalar by :func:`~bspapa.gains._is_real`, as the newest input x(n)."""
        if not _is_real(sample):
            raise ValueError(f"sample must be a real scalar, got {sample!r}")
        self._head = head = (self._head - 1) % self._span
        self._slots[head] = sample
        if self._rows is not None:
            self._row_head = row = (self._row_head - 1) % self._row_count
            self._row_slots[row] = self._buf[head : head + self.projection_order]

    def extend(self, samples) -> None:
        """Push ``samples``, a 1-D sequence of real scalars, oldest first; anything else is
        rejected before the first push."""
        samples = _real_array(samples, "samples")
        if samples.ndim != 1:
            raise ValueError(f"samples must be a 1-D sequence, got shape {samples.shape}")
        for s in samples:
            self.push(s)

    def window(self) -> np.ndarray:
        """Newest-first view of the stored samples (valid until the next push)."""
        return self._buf[self._head : self._head + self._span]

    def input_vector(self, delay: int = 0) -> np.ndarray:
        """x(n - delay) as a length-L vector, newest sample first."""
        if not (_is_integer(delay) and 0 <= delay < self.projection_order):
            raise ValueError(f"delay must be an integer in [0, {self.projection_order - 1}], got {delay!r}")
        return self.window()[delay : delay + self.filter_length]

    def regressor_matrix(self) -> np.ndarray:
        """The L-by-M matrix whose column j is the input vector delayed j samples."""
        return self._transposed().T

    def _transposed(self) -> np.ndarray:
        """X(n).T, unit stride along the taps; the first call makes ring rows 1..M-1."""
        if self._xt is None:
            rows = np.empty((self.projection_order, 2 * self._span))
            rows[:] = self._buf
            self._ring(rows)
        return self._xt[self._head]

    def _first_rows(self, count: int) -> np.ndarray:
        """X(n)[:count] as a C-contiguous read-only view of the row ring, for ``count`` in
        [1, L].  A call for more rows than the ring holds makes it again from the stored
        samples; every later push keeps it current."""
        if count > self._row_count:
            if not (_is_integer(count) and 1 <= count <= self.filter_length):
                raise ValueError(f"count must be an integer in [1, {self.filter_length}], got {count!r}")
            step = self._buf.strides[0]
            rows = np.empty((2 * count, self.projection_order))
            # ring row i holds the M samples from window slot i on
            rows[:count] = rows[count:] = as_strided(self._buf[self._head :], rows[:count].shape, (step, step))
            self._row_slots = _mirrored(rows)  # entry h: the two copies a push at head h writes
            self._rows = rows.view()
            self._rows.flags.writeable = False
            self._row_head, self._row_count = 0, count
        return self._rows[self._row_head : self._row_head + count]


@dataclass(frozen=True, eq=False)
class WeightedRegressor:
    """Gain-weighted regressor plus the number of products spent building it."""

    matrix: np.ndarray
    multiplication_count: int


def _check_gains(gains: GainVector, filter_length: int, holder: str) -> None:
    """Reject ``gains`` unless they cover the ``filter_length`` taps ``holder`` holds."""
    if gains.partition.filter_length != filter_length:
        raise ValueError(
            f"gains cover {gains.partition.filter_length} taps but {holder} holds {filter_length}"
        )


def build_weighted_regressor_direct(gains: GainVector, history: RegressorHistory) -> WeightedRegressor:
    """Weighted regressor by plain row scaling: M*L products; the reference for the efficient build."""
    _check_gains(gains, history.filter_length, "history")
    matrix = gains.expand()[:, None] * history.regressor_matrix()
    return WeightedRegressor(matrix, history.projection_order * history.filter_length)


def build_weighted_regressor_efficient(gains: GainVector, history: RegressorHistory) -> WeightedRegressor:
    """Weighted regressor with per-block product reuse: (P+M-1)*N products.

    Within a block all regressor entries are the block gain times one of
    P+M-1 consecutive input samples, so each product is computed once and
    placed through a strided view in which entry (k, i, j) reads product
    (k, i + j).  The result is bit-exact equal to the direct construction
    and always a C-contiguous copy, so the Gram matrix and the update run
    in BLAS; with one block the placed view alone would overlap itself.
    """
    _check_gains(gains, history.filter_length, "history")
    group, order = gains.partition.group_size, history.projection_order
    window = history.window()
    # row k holds window entries k*P .. k*P + P + M - 2, every regressor entry of block k
    step = window.strides[0]
    windows = np.ndarray((len(gains.block_gains), group + order - 1), float, window, 0, (group * step, step))
    matrix = np.empty((history.filter_length, order))
    products = gains.block_gains[:, None] * windows  # (N, P+M-1)
    # Row i of block k is the M products from (k, i) on, so the copy moves whole
    # rows: the matrix as (N, P) items of M floats, one per row.
    rows = matrix.view(np.dtype((np.void, matrix.strides[0]))).reshape(-1, group)
    np.copyto(rows, np.ndarray(rows.shape, rows.dtype, products, 0, (products.strides[0], products.itemsize)))
    return WeightedRegressor(matrix, windows.size)


def update_memory_regressor(state: FilterState, gains: GainVector, newest_input) -> np.ndarray:
    """Rotate the memory regressor and weight the newest input column.

    The first column becomes the per-tap gains (from the current weights)
    times x(n); older columns keep the gains they were built with.  Exactly
    L products are spent.  The matrix is a view of ``state.memory_ring``
    (see :class:`FilterState`): the head moves back one row and the new
    column is written to both mirrored copies of that row, so no column
    is copied.  The returned view is valid until the next call.
    """
    ring = state.memory_ring
    if ring is None:
        raise ValueError("memory regressor is only maintained for mpapa/bs-mpapa filters")
    x = np.asarray(newest_input, dtype=float)
    if x.shape != (ring.shape[1],):
        raise ValueError(f"expected an input vector of length {ring.shape[1]}, got shape {x.shape}")
    _check_gains(gains, ring.shape[1], "the memory ring")
    order = ring.shape[0] // 2
    state.memory_head = head = (state.memory_head - 1) % order
    np.multiply(gains.expand(), x, out=ring[head])
    ring[head + order] = ring[head]
    return state.memory_regressor


def _mirrored(ring: np.ndarray) -> np.ndarray:
    """By head h, the rows h and h + half of a ``ring`` mirrored at half its length: the two a push writes."""
    half, row = len(ring) // 2, ring.strides[0]
    return as_strided(ring, (half, 2, *ring.shape[1:]), (row, half * row, *ring.strides[1:]))


def _weigh(gains: np.ndarray, x: np.ndarray, out: np.ndarray, blocks) -> None:
    """``out = gains * x``, in place; no checks.  ``blocks`` is ``out`` as one row per
    block, whose gain is copied over it first (a broadcast would buffer), or None."""
    if blocks is not None:
        np.copyto(blocks, gains[:, None])
        gains = out
    np.multiply(gains, x, out=out)


def solve_regularized(matrix, delta: float, rhs) -> np.ndarray:
    """Solve ``(matrix + delta*I) z = rhs`` by LU with partial pivoting.

    One general factorization covers all variants, since the memory members
    produce nonsymmetric systems.  The LAPACK routines ``dgetrf``/``dgetrs``
    are called directly, from scipy's ``_flapack`` extension loaded on its
    own (see the module notes), without ``scipy.linalg`` or its
    ``lu_factor``/``lu_solve`` wrappers.
    A pivot collapsing to working precision raises
    :class:`SingularSystemError` carrying the offending magnitude, and no
    warning is emitted on that path.  A NaN pivot is not a collapse: a NaN
    system solves to NaN.
    """
    a, b = _real_array(matrix, "matrix"), _real_array(rhs, "rhs")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"matrix must be square and nonempty, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs length {b.shape} does not match matrix order {a.shape[0]}")
    if not _is_real(delta):
        raise ValueError(f"regularization must be a real number, got {delta!r}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"regularization must be finite and nonnegative, got {delta}")
    lu, solution = np.array(a, order="F"), b.copy()
    diagonal = lu.T.reshape(1, -1)[:, :: a.shape[0] + 1]
    diagonal += _as_float(delta, "regularization")
    for error in _solve_stack([(lu, solution[:, None])], diagonal).values():
        raise error
    return solution


def _solve_stack(systems, diagonal: np.ndarray) -> dict:
    """Solve ``lu z = rhs`` in place for each ``(lu, rhs)``, whose ``lu`` already holds
    its delta on the diagonal; no checks.

    Each ``lu`` is F-contiguous, so LAPACK factors it in place, and each ``rhs``
    is best an ``(M, 1)`` column, which the wrapper takes as it is; ``diagonal``
    is their ``(B, M)`` diagonal view.  The pivot test is per system,
    ``smallest <= bound`` with NaN-propagating reductions, so a NaN pivot is
    no collapse.  It is skipped when ``min > scale * max`` over the whole
    stack in Python floats passes every system at once: Python's ``min`` and
    ``max`` may skip a NaN, but a system with a NaN pivot never fails, and
    every other system's pivots lie between the two.
    Returns ``{b: SingularSystemError}``; those ``rhs`` stay unsolved.
    """
    factors = [dgetrf(lu, 1) for lu, _ in systems]  # overwrite_a, positional: keywords cost more
    magnitudes, scale = np.abs(diagonal), diagonal.shape[1] * _EPS
    pivots, failed = magnitudes.ravel().tolist(), {}
    if not min(pivots) > scale * max(pivots):
        smallest = np.minimum.reduce(magnitudes, 1).tolist()
        largest = np.maximum.reduce(magnitudes, 1).tolist()
        for b, (pivot, top) in enumerate(zip(smallest, largest)):
            if pivot <= scale * top:
                failed[b] = SingularSystemError(
                    f"projection system singular to working precision (pivot {pivot:.3e})", pivot=pivot
                )
    for b, ((lu, rhs), (_, piv, info)) in enumerate(zip(systems, factors)):
        if info < 0:
            raise ValueError(f"dgetrf rejected argument {-info}")
        if b not in failed and dgetrs(lu, piv, rhs, 0, 1)[1] < 0:  # trans, overwrite_b
            raise ValueError("dgetrs rejected an argument")
    return failed


def variant_gains(config: FilterConfig, weights) -> GainVector:
    """Gains from the grouping alone: the identity for one block spanning the
    filter, coefficient magnitudes for one-tap blocks, block Euclidean norms
    otherwise.  The first two are the block rule's exact values: a lone
    floored norm over itself is one, and ``sqrt(w*w) == |w|`` short of
    overflow (underflowed taps sit below the ``rho*q`` floor anyway).
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (config.filter_length,):
        raise ValueError(
            f"expected a weight vector of length {config.filter_length}, got shape {w.shape}"
        )
    return GainVector(_block_gains(config, w), config.partition)


def _block_gains(config: FilterConfig, weights: np.ndarray, out=None, squares=None) -> np.ndarray:
    """The block gains of :func:`variant_gains` as a bare array; no checks.  The
    optional buffers are those of :func:`~bspapa.gains._block_norms`."""
    if config.block_count == 1:
        return _UNIT_GAIN
    if config.group_size == 1:
        return _floored_gains(np.abs(weights, out=out), config.guards, out)
    return _floored_gains(_block_norms(weights, config.group_size, out, squares), config.guards, out)


def _blocks(row: np.ndarray, config: FilterConfig):
    """``row``, of L floats, as one row per block for :func:`_weigh`; None for one-tap blocks."""
    return None if config.group_size == 1 else row.reshape(config.block_count, -1)


def filter_step(
    config: FilterConfig, state: FilterState, history: RegressorHistory, desired
) -> float:
    """Advance one adaptation step, mutating ``state``; return the a-priori error.

    ``history`` must already contain x(n); ``desired`` holds the newest M
    desired samples, newest first.  Gains are recomputed from the current
    weights every call; the returned ``d(n) - x(n).T @ w`` uses the old weights.
    The arguments are checked against ``config`` on every call; the step
    itself is the batch of one that ``state`` keeps (see :class:`FilterState`).
    """
    if (
        history.filter_length != config.filter_length
        or history.projection_order != config.projection_order
    ):
        raise ValueError("history dimensions do not match the filter config")
    desired = np.asarray(desired, dtype=float)
    if desired.shape != (config.projection_order,):
        raise ValueError(
            f"expected {config.projection_order} desired samples, got shape {desired.shape}"
        )
    weights = state.weights
    if weights.dtype != float or weights.shape != (config.filter_length,):
        raise ValueError(
            f"expected float weights of length {config.filter_length}, got "
            f"{weights.dtype} of shape {weights.shape}"
        )
    ring = state.memory_ring
    held = None if ring is None else ring.shape
    needed = _ring_shape(config) if config.is_memory else None
    if held != needed:  # a ring only for memory members, and one of their shape
        raise ValueError(f"variant {config.variant!r} needs memory_ring {needed}, the state holds {held}")
    if not (_is_integer(head := state.memory_head) and 0 <= head < config.projection_order):
        raise ValueError(f"memory_head must be an integer in [0, {config.projection_order}), got {head!r}")
    return state._step(config, history, desired)


class _ScalarRow:
    """One single-projection row's step, ``w += mu*e*Gx / (x.Gx + delta)`` with mu and delta
    as Python floats; no checks.  Gx is x weighted in the update row (as ``(N, P)`` blocks,
    which first hold the squares, for P > 1), or x itself for one block, of gain one.  A call
    reads x(n) and d(n) from the history and desired window itself and returns the a-priori
    error and the failure or None; a failure leaves the weights untouched."""

    def __init__(self, config: FilterConfig, weights: np.ndarray, out: np.ndarray):
        self.config, self.weights, self.out, self.blocks = config, weights, out, _blocks(out, config)
        self.gains = None if config.block_count == 1 else np.empty(config.block_count)
        self.mu, self.delta = float(config.step_size), float(config.regularization)

    def __call__(self, history: RegressorHistory, desired: np.ndarray):
        w, out, gains, head = self.weights, self.out, self.gains, history._head
        x = history._buf[head : head + len(w)]  # x(n)
        prior = float(desired[0]) - float(np.dot(x, w))
        weighted = x
        if gains is not None:
            _weigh(_block_gains(self.config, w, gains, self.blocks), x, out, self.blocks)
            weighted = out
        denominator = float(np.dot(x, weighted)) + self.delta
        if denominator == 0.0:
            message = "scalar normalization is zero (silent input with delta=0)"
            return prior, SingularSystemError(message, pivot=0.0)
        np.multiply(weighted, self.mu * prior / denominator, out=out)
        np.add(w, out, out=w)
        return prior, None


class _Batch:
    """The step kernel: B filters sharing (L, M) and the branch, stepped as one.

    A step is six layers, one method each: gains, build, Gram, error, solve,
    update.  The weights are the rows of one ``(B, L)`` block, in four runs:
    built rows, summed rows, unit-gain rows, memory rows (those that keep
    their products first, then those that sum); ``_panel_batches`` orders
    them so.  The one gain pass fills each other row's own gain buffers, in
    the order the build reads the rows (built, memory, then summed), and the
    build only weights.  Built rows weight their regressor into a
    C-contiguous ``(Bb, L, M)`` stack: they copy their block gains over their
    slot and multiply it by X(n), the history's
    :meth:`~RegressorHistory._first_rows` view, in place.  A unit-gain
    row (one block, of gain exactly one) uses that view itself, one row at a
    time: its X(n) z is an ``(L, M) @ (M,)`` product.  Memory rings
    are stacked as ``(Bm, 2M, L)`` under one head, whose row is weighted by
    x(n) the same way.  Each stacked product equals the per-filter product bit
    for bit.  The history's copies of its input are made as the batch reads
    them: a batch with a built or summed row, or a unit-gain row that is not
    recursive, reads all of X(n) from the row view; one whose only readers are
    its lag writes reads X(n)[:P], P its largest lag group, so its history's
    row ring holds 2P rows (16 KiB at P=64, M=16, not 1 MiB); other batches
    read none.  Only a full-product error or Gram, that of a batch that is not
    recursive, of its built rows, or of a memory row's gemvs, reads X(n).T
    whole and makes the history's M-fold ring.  A step allocates no array of L floats.  A
    single-projection batch is its :class:`_ScalarRow` steps.  No checks.

    A ``recursive`` batch keeps, per row, the a-posteriori errors
    ε = (1 - mu)e + mu*delta*z of its last step (e for a row whose system
    failed) and its Gram matrices, both zero at the start.  Its error layer
    forms only e(n)[0] = d(n) - x(n).T w, as one dot product a row, and takes
    e(n)[1:] = ε(n-1)[:M-1]; it keeps e(n) beside the z its solve writes
    (``_solved`` holds [z; e(n)] a row).  Its unit-gain and memory rows' Gram
    matrix is G(n-1)[:-1, :-1] shifted down the diagonal, with column 0,
    X(n).T W[:, 0], and then row 0, x(n).T W, formed anew; for a unit-gain row
    both are X(n).T x(n), so that matrix is symmetric.  Built rows form the
    full product.  :meth:`without` carries the state of the rows it keeps.

    A recursive batch's unit-gain rows (``units``, a run of rows) hold
    fictitious weights (Gay & Tavathia): the weights row is ŵ, and the row
    keeps E, M floats, zero at the start, with w(n) = ŵ(n) + mu * X̄(n) Ē(n),
    X̄ the first M - 1 columns of X and Ē = E[:M-1] (:meth:`formed`).  Its
    update is E(n) = [0; Ē(n-1)] + z(n), z = 0 for a failed row, then
    ŵ += (mu * E(n)[M-1]) * x(n-M+1), one multiply-add of L floats from the
    history's single input ring, where w would take an (L, M) @ (M,)
    product.  Its error is e(n)[0] = d(n) - x(n).T ŵ(n-1) - mu *
    G(n)[0, 1:] Ē(n-1), so the Gram layer, which forms that row, runs before
    the error layer.
    The batch also forms the stream's misalignment, so only it reads the
    fictitious weights: :meth:`segment` starts a segment, and
    :meth:`misalignment` gives every row's value after a step, a unit-gain
    row's by a scalar recursion.

    Row i of X(n) is row i - 1 of X(n-1), so block k's correlation is
    R_k(n)[a, a + j] = r_P(n - a - kP)[j], where r_P(m)[j] = sum_{i<P} x(m - i)
    x(m - i - j) is block 0's row 0 at time m.  A recursive batch keeps one
    ring of L + M - 1 lag vectors r_P per group size P its rows read, zero at
    the start and mirrored, the period of the history's own ring.  A recursive
    batch steps once per push, from the stream's start, so the history's head
    addresses the ring: its build writes each r_P(n) once there,
    ``x(n)[:P] @ X(n)[:P]`` on the row view.  Gained rows with P and M from
    ``_SUM_FROM`` on are summed rows, with no W: C[a, j] = sum_k g_k
    r_P(n - a - kP)[j] is one stacked ``(N,) @ (M, N, M)`` product over a
    strided view of the ring, G[a, b] = C[min(a, b), |a - b|] is exactly
    symmetric, and the update is g * (X(n) z), the gains applied as the
    build does.  A unit-gain row's column 0 is sum_k r_P(n - kP); a
    memory row's is sum_k g_k(n) r_P(n - kP), row 0 of its C, and its row 0
    sum_k g_k(n - j) r_P(n - kP)[j], from a mirrored ring of its last M block
    gains.  The rule (:func:`_lag_group`): a unit-gain row always sums, and a
    gained row, memory or not, from ``_SUM_FROM`` on; below that, a memory row's
    row 0 sum, an elementwise (M, N) pass, is slower than its gemv, so ``mpapa``
    keeps its two.  Build + Gram products a step: summed 0 + (P*M + N*M^2),
    unit-gain 0 + (P*M + N*M), memory L + (P*M + 2*N*M).
    Every entry is a fresh P-term sum, so nothing drifts.
    """

    def __init__(self, configs, weights: np.ndarray, rings: np.ndarray, recursive=False):
        self.configs, self.weights, self.rings, self.head, self._stream = configs, weights, rings, 0, None
        (count, length), order = weights.shape, configs[0].projection_order
        self.scalar, self.plain, self.recursive = configs[0].is_scalar, count - len(rings), recursive
        if self.scalar:  # the rows alone, each with an update row of its own
            self._scalar_rows = [_ScalarRow(*row) for row in zip(configs, weights, np.empty(weights.shape))]
            self.units, self._unit_rows = (count, count), []
            return
        p = self.plain
        gained = p - sum(c.block_count == 1 for c in configs[:p])
        # a recursive batch's lag group of each row (see _lag_group); the summed rows come last of its
        # gained rows, and the memory rows that sum last of all
        groups = [_lag_group(c) if recursive else None for c in configs]
        built = gained - sum(g is not None for g in groups[:gained])
        self.built, self.gained = built, gained
        self.summing = count - sum(g is not None for g in groups[p:])
        # one step size a tap: a (B, 1) column would make the multiply buffer B*L floats
        self.mu = np.repeat([[c.step_size] for c in configs], length, axis=1)
        # each row's delta on the diagonal, added as the Gram stack is copied to the LU stack
        self._ridge = np.array([c.regularization * np.eye(order) for c in configs])
        # the unit-gain rows that hold fictitious weights: rows lo..hi-1, or (B, B) for none
        lo, hi = (gained, p) if recursive and p > gained else (count, count)
        self.units = lo, hi
        # the right-hand sides, solved in place into z, and e(n), which a recursive batch keeps;
        # ``_solved`` holds them as [z; e(n)] a row
        stacks = np.zeros((2, count, order))
        self._solved = stacks.transpose(1, 0, 2)
        error, update = stacks[0, :, :, None], np.empty((count, length, 1))
        if recursive:  # ε and e(n), with (B, M) coefficients
            self._eps, self._scratch = np.zeros((count, order)), np.empty((count, order))
            self._prior = stacks[1]
            self._decay = np.repeat([[1.0 - c.step_size] for c in configs], order, axis=1)
            self._pull = np.repeat([[c.step_size * c.regularization] for c in configs], order, axis=1)
        gram, lu = np.zeros((count, order, order)), np.empty((count, order, order))
        self._columns, self._errors, self._updates = weights[:, :, None], error, update[:, :, 0]
        self._grams, self._lu = gram, lu.transpose(0, 2, 1)
        self._diagonal = lu.reshape(count, -1)[:, :: order + 1]
        self._rhs = error[:, :, 0]
        if recursive:  # the views the error layer reads and writes every step
            self._carried = (self._rhs[:, 1:], self._eps[:, :-1])  # e(n)[1:] = ε(n-1)[:M-1]
            self._heads = (self._errors[:, :1], self._rhs[:, 0])  # x(n).T w, then e(n)[0]
        self._systems = list(zip(self._lu, error))  # F-contiguous LU, (M, 1) rhs
        weighted = np.empty((built, length, order))
        built_rows = list(zip(configs, weights, weighted))  # zip stops at the summed rows
        memory = list(zip(configs[p:], weights[p:], rings))
        summed = list(zip(configs[built:gained], weights[built:], self._updates[built:]))
        # The gain pass's (config, weights, gains, squares) a row, in the order the build reads them.
        self._gained = [(c, w, np.empty(c.block_count), _blocks(np.empty(length), c))
                        for c, w, _ in built_rows + memory + summed]
        # Built rows weight their slot, as (N, P*M) blocks, in place.
        self._in_place = [(c, m, m.reshape(c.block_count, -1)) for c, _, m in built_rows]
        # A summing memory row's block gains g(n - j), j < M, mirrored under the memory rings' head.
        self._gain_rings = [np.zeros((2 * order, c.block_count)) for c in configs[self.summing :]]
        slots = [()] * (self.summing - p) + [(_mirrored(g),) for g in self._gain_rings]
        self._memory = [  # per head: the ring row a push weights, as (N, P) blocks, its mirror[, gain slots]
            [(r, _blocks(r, c), m, *gains) for r, m, *gains in zip(ring, ring[order:], *s)]
            for (c, _, ring), s in zip(memory, slots)]
        # (weighted, gram, error, update): the built rows' stacks, then the summed rows and the unit-gain
        # rows that hold no fictitious weights one at a time, as (gram, z, update) over X(n), the row
        # view: X(n) z is an (L, M) @ (M,) gemv
        self._parts = [(weighted, gram[:built], error[:built], update[:built])] if built else []
        products = np.empty((len(summed), length))
        outs = [*products, *self._updates[gained:p]]
        self._row_parts = [(gram[b], self._rhs[b], out) for b, out in zip(range(built, min(lo, p)), outs)]
        # The fictitious weights' E, and (row, mu, G[0, 1:], E, update row) a row
        self._fictitious = np.zeros((hi - lo, order))
        self._unit_rows = [(b, configs[b].step_size, gram[b, 0, 1:], f, self._updates[b])
                           for b, f in zip(range(lo, hi), self._fictitious)]
        flat = self._fictitious.reshape(-1)  # its shift, as the Gram stack's: backwards, unbuffered
        self._unit_update = ((flat[1:], flat[:-1]), self._fictitious[:, 0], self._rhs[lo:hi])
        # the update stack's runs that take mu * W z, each as (updates, mu): all rows but the units
        self._scaled = [(self._updates[a:b], self.mu[a:b]) for a, b in ((0, lo), (hi, count)) if a < b]
        self._ring_stacks = (gram[p:], error[p:], update[p:])
        # One lag ring per group size P the rows read (see above), under the history's head, with the
        # two rows a push writes by head, and a view by head that reads r(n - a - kP)[j] at [a, k, j].
        span = length + order - 1
        self._lag_groups = sorted({g for g in groups if g is not None})
        self._lags = np.zeros((len(self._lag_groups), 2 * span, order))
        self._lag_slots = [(group, _mirrored(lags)) for group, lags in zip(self._lag_groups, self._lags)]
        row, tap = self._lags.strides[1:]
        views = {group: as_strided(lags, (span, order, length // group, order),
                                   (row, row, group * row, tap), writeable=False)
                 for group, lags in zip(self._lag_groups, self._lags)}
        # the rows of X(n) the build reads: all of them to multiply by it, else the largest lag group's
        self._row_count = length if self._row_parts or self._in_place else max(self._lag_groups, default=0)
        self._sums = np.empty((len(summed), order, order))  # C[a, j] = sum_k g_k r(n - a - kP)[j]
        a, b = np.indices((order, order))
        self._mirror = np.minimum(a, b) * order + abs(a - b)  # G[a, b] = C[min(a, b), |a - b|]
        # (P, gains, correlation views, update row, its (N, P) blocks, X(n)z)
        self._summed = [
            (c.group_size, g, views[c.group_size], u, _blocks(u, c), product)
            for (c, _, u), (_, _, g, _), product in zip(
                summed, self._gained[len(self._gained) - len(summed):], products)]
        # Unit-gain rows' column 0 sums N lag vectors: (ones, views), or None; (gram, gain ring,
        # views) a summing memory row.
        unit = groups[gained] if p > gained else None
        self._unit_sum = unit and (np.ones(length // unit), views[unit])
        self._memory_sums = [(gram[b], gains, views[groups[b]], np.empty((order, length // groups[b])))
                             for b, gains in zip(range(self.summing, count), self._gain_rings)]
        # The shift of the unit-gain and memory rows' Gram stack down its diagonal, as one copy
        # along the flat stack: its overlap runs backwards unbuffered, and what it writes to row
        # and column 0 is formed anew.
        flat = gram[gained:].reshape(-1)
        self._shift = (flat[order + 1 :], flat[: len(flat) - order - 1])
        # Indexed by head: the (Bm, L, M) regressors as in FilterState.
        ring, row, tap = rings.strides
        shape = (order, len(rings), length, order)
        self._ring_views = np.ndarray(shape, rings.dtype, rings, 0, (row, ring, tap, row))

    def without(self, rows) -> "_Batch":
        """A new batch of copies of every filter but ``rows``, with their recursion and stream state."""
        keep = [b for b in range(len(self.configs)) if b not in rows]
        ring_rows = [b - self.plain for b in keep if b >= self.plain]
        configs = [self.configs[b] for b in keep]
        batch = _Batch(configs, self.weights[keep], self.rings[ring_rows], self.recursive)
        batch.head, (lo, hi) = self.head, self.units
        units = [b - lo for b in keep if lo <= b < hi]  # the unit-gain rows kept, from the first
        if self._stream:  # the segment, a buffer of the rows kept, and their running and last exact values
            *segment, diff = self._stream
            batch._stream = (*segment, diff[: len(keep)])
            batch._running, batch._exact = [self._running[i] for i in units], [self._exact[i] for i in units]
        if self.recursive:
            batch._grams[:], batch._eps[:] = self._grams[keep], self._eps[keep]
            batch._fictitious[:] = self._fictitious[units]
            batch._lags[:] = self._lags[[self._lag_groups.index(g) for g in batch._lag_groups]]
            for new, b in zip(batch._gain_rings, [b for b in keep if b >= self.summing]):
                new[:] = self._gain_rings[b - self.summing]
        return batch

    def step(self, history: RegressorHistory, desired: np.ndarray):
        """Step every filter a sample, layer by layer; return the a-priori errors and ``{row: failure}``."""
        if self.scalar:  # one call a row; a failed row keeps its weights
            steps = [row(history, desired) for row in self._scalar_rows]
            return [prior for prior, _ in steps], {b: failed for b, (_, failed) in enumerate(steps) if failed}
        gains = self._gains()
        parts = self._build(history, gains)
        self._gram(history, parts)
        prior = self._error(history, desired)
        failed = self._solve()
        self._update(history, parts, failed)
        return prior, failed

    def _gains(self) -> list:
        """Every gained row's block gains, in buffers of its own, in the order the build reads them."""
        return [_block_gains(config, w, gains, squares) for config, w, gains, squares in self._gained]

    def _error(self, history: RegressorHistory, desired: np.ndarray) -> list:
        """The a-priori errors ``d - X.T w``, into the solve's right-hand sides; return each row's
        e(n)[0].  A recursive batch forms e(n)[0] alone, a unit-gain row's from ŵ and this step's
        Gram row 0, and keeps e(n) as ``_prior``."""
        rhs = self._rhs
        if not self.recursive:
            np.matmul(history._transposed(), self._columns, out=self._errors)
            np.subtract(desired, rhs, out=rhs)
            return rhs[:, 0].tolist()
        np.copyto(*self._carried)
        products, first = self._heads
        np.matmul(history._x0[history._head], self._columns, out=products)  # one dot product a row
        np.subtract(desired[0], first, out=first)
        for b, mu, row, fictitious, _ in self._unit_rows:  # x(n).T w(n-1) = x(n).T ŵ + mu G(n)[0, 1:] Ē(n-1)
            rhs[b, 0] -= mu * float(np.dot(row, fictitious[:-1]))
        np.copyto(self._prior, rhs)
        return first.tolist()

    def _build(self, history: RegressorHistory, gains: list) -> list:
        """Weight the gained rows' regressors by ``gains``, push the lag and gain rings; return
        the (W, Gram, error, update) stacks and rows."""
        gains, parts = iter(gains), self._parts
        if self._row_count:
            regressor = history._first_rows(self._row_count)
            for (_, out, blocks), g in zip(self._in_place, gains):
                _weigh(g, regressor, out, blocks)
            parts = parts + [(regressor, *row) for row in self._row_parts]
            if self._lag_slots:  # each lag vector r(n) = x(n)[:P] @ X(n)[:P], twice
                head = history._head
                x = history._buf[head:]
                for group, slots in self._lag_slots:
                    np.matmul(x[:group], regressor[:group], out=slots[head, 0])
                    slots[head, 1] = slots[head, 0]
        if self._memory:
            self.head = head = (self.head - 1) % history.projection_order
            x = history._buf[history._head : history._head + self.weights.shape[1]]
            for heads, g in zip(self._memory, gains):
                row, blocks, mirror, *pushed = heads[head]
                _weigh(g, x, row, blocks)
                np.copyto(mirror, row)
                for slots in pushed:  # a summing row's block gains g(n), twice
                    np.copyto(slots, g)
            parts = [*parts, (self._ring_views[head], *self._ring_stacks)]
        return parts

    def _gram(self, history: RegressorHistory, parts: list) -> None:
        """Each stack's Gram matrix ``X.T W``; a recursive batch sums its summed rows', and
        shifts its unit-gain and memory rows' and forms their row and column 0 alone."""
        products = parts[: len(self._parts)] if self.recursive else parts
        if products or self.summing > self.plain:  # only these multiply by X(n).T whole
            xt = history._transposed()
        for weighted, gram, _, _ in products:
            np.matmul(xt, weighted, out=gram)
        lag = history._head
        if self._summed:  # C = g @ the correlation view, mirrored onto G
            for (_, gains, views, *_), sums in zip(self._summed, self._sums):
                np.matmul(gains, views[lag], out=sums)
            # "clip": under the default "raise" numpy would buffer the output
            np.take(self._sums.reshape(len(self._sums), -1), self._mirror, axis=1,
                    out=self._grams[self.built : self.gained], mode="clip")
        if not self.recursive or self.gained == len(self.configs):
            return
        head, order = self.head, history.projection_order
        np.copyto(*self._shift)
        units = self._grams[self.gained : self.plain]
        if len(units):  # column 0, then the same row 0: sum_k r(n - kP)
            ones, views = self._unit_sum
            units[:, :, 0] = units[:, 0] = ones @ views[lag, 0]
        if self.summing > self.plain:  # memory rows' column 0 and row 0 from X(n)
            memory, rings = self._grams[self.plain : self.summing], self.rings[: self.summing - self.plain]
            np.matmul(xt, rings[:, head, :, None], out=memory[:, :, :1])
            np.matmul(rings[:, head : head + order], xt[0, :, None], out=memory[:, :1].transpose(0, 2, 1))
        for gram, gains, views, terms in self._memory_sums:
            # column 0 = sum_k g_k(n) r(n - kP), then row 0 = sum_k g_k(n - j) r(n - kP)[j]
            lags = views[lag, 0]
            gram[:, 0] = gains[head] @ lags
            np.copyto(terms, lags.T)  # then multiplied in place: a multiply reading lags.T would buffer it
            np.add.reduce(np.multiply(terms, gains[head : head + order], out=terms), 1, out=gram[0])

    def _solve(self) -> dict:
        """Solve ``(Gram + delta*I) z = e`` in place of the errors; return ``{row: failure}``."""
        np.add(self._grams, self._ridge, out=self._lu)
        return _solve_stack(self._systems, self._diagonal)

    def _update(self, history: RegressorHistory, parts: list, failed: dict) -> None:
        """``w += mu * W z`` on every row but the failed ones, whose z is zero; a recursive batch
        moves its unit-gain rows' fictitious weights instead, and keeps ε."""
        rhs = self._rhs
        if failed:
            rows = list(failed)
            rhs[rows] = 0.0
        for weighted, _, error, out in parts:
            np.matmul(weighted, error, out=out)
        for _, gains, _, out, blocks, product in self._summed:  # g * (X(n) z)
            _weigh(gains, product, out, blocks)
        for updates, mu in self._scaled:
            updates *= mu
        if failed:  # zero even where W held NaN
            self._updates[rows] = 0.0
        if self._unit_rows:  # E = [0; Ē] + z, then ŵ += (mu E[M-1]) x(n-M+1)
            shift, first, z = self._unit_update
            np.copyto(*shift)
            first[:] = 0.0
            np.add(self._fictitious, z, out=self._fictitious)
            start = history._head + history.projection_order - 1
            oldest = history._buf[start : start + self.weights.shape[1]]
            for _, mu, _, fictitious, update in self._unit_rows:
                np.multiply(oldest, mu * float(fictitious[-1]), out=update)
        self.weights += self._updates
        if self.recursive:  # ε = (1 - mu) e + mu delta z, in place
            eps, prior = self._eps, self._prior
            np.multiply(self._decay, prior, out=eps)
            np.add(eps, np.multiply(self._pull, rhs, out=self._scratch), out=eps)
            if failed:  # a failed row kept its weights, so its errors stand
                eps[rows] = prior[rows]

    def formed(self, history: RegressorHistory) -> np.ndarray:
        """A copy of every row's weights w(n), with a recursive batch's unit-gain rows formed
        from their fictitious weights, ŵ + mu * X̄(n) Ē(n), over the history's single input
        ring: (M - 1) * L products a row.  ``history`` is the one the batch last stepped on."""
        weights = self.weights.copy()
        if self._unit_rows:
            step, order = history._buf.strides[0], history.projection_order
            # X̄(n).T, row j = x(n - j): overlapping rows of the ring, which numpy's own loop reads
            rows = as_strided(history._buf[history._head :], (order - 1, self.weights.shape[1]),
                              (step, step), writeable=False)
            for b, mu, _, fictitious, _ in self._unit_rows:  # a row at a time: a stack would take BLAS
                weights[b] += mu * (fictitious[:-1] @ rows)
        return weights

    def segment(self, x: np.ndarray, d: np.ndarray, start: int, end: int, truth: np.ndarray) -> None:
        """Start the misalignment stream of the segment [start, end) of input ``x`` and desired
        ``d``, whose response is ``truth``: keep h, ||h||^2 and a buffer of the weights' shape, and
        for the unit-gain rows form y(m) - d(m), y = X.T h the clean echo, over the M - 1 samples
        before the segment and its own: reversed, so y(n) - d(n) is a forward slice."""
        clean = None
        if self._unit_rows:
            order = self.configs[0].projection_order
            first = start - order + 1  # the oldest sample y(n) - d(n) reads, n = start
            lead, known = max(0, first - truth.size + 1), max(first, 0)  # x(m - k), k < L, from lead on
            clean = np.convolve(x[lead:end], truth)[known - lead : end - lead] - d[known:end]
            clean = np.concatenate((np.zeros(known - first), clean))[::-1].copy()
        self._stream = truth, _power(truth), start, end, clean, np.empty(self.weights.shape)
        self._running, self._exact = [0.0] * len(self._unit_rows), [0.0] * len(self._unit_rows)

    def misalignment(self, history: RegressorHistory, n: int) -> list:
        """Every row's misalignment in dB after the step at sample ``n`` of the segment
        :meth:`segment` started, ``history`` the one the batch stepped on.  A weights row's is
        read from its weights, a unit-gain row's (fictitious weights) from each step's errors
        and solution instead: its step is w(n) = w(n-1) + mu X(n) z with
        (X(n).T X(n) + delta I) z = e(n), and X(n).T (h - w(n-1)) = y(n) - d(n) + e(n), so

            ||h - w(n)||^2 = ||h - w(n-1)||^2 - 2 mu z.T (y(n) - d(n) + e(n))
                             + mu^2 (z.T e(n) - delta z.T z):

        O(M) work a sample, two small products over the row's [z; e(n)].  A row forms w
        (:meth:`formed`) and ||h - w||^2 exactly at the segment's start, whenever its running
        value falls below ``_EXACT_DROP`` of its last exact one, and on every sample below
        ``_EXACT_BELOW * ||h||^2``: the recursion's error grows as the value falls, about 100
        times for every 20 dB.  Every value is the row's own arithmetic, so an entry's trace
        does not depend on the rows beside it."""
        truth, power, start, end, clean, diff = self._stream
        if not self._unit_rows:
            return _misalignment_rows(truth, power, self.weights, diff)
        (lo, hi), running, exact = self.units, self._running, self._exact
        values = _misalignment_rows(truth, power, self.weights[:lo], diff[:lo]) if lo else []
        if n == start:  # every unit row formed exactly
            running[:] = exact[:] = _squared_errors(truth, self.formed(history)[lo:hi]).tolist()
        else:
            formed, back = None, end - 1 - n
            recent = clean[back : back + history.projection_order]  # y(n) - d(n)
            for i, (b, mu, _, _, _) in enumerate(self._unit_rows):
                solved = self._solved[b]  # [z; e(n)]
                z = solved[0]
                zz, ez = np.dot(solved, z).tolist()
                zc = float(np.dot(z, recent))
                value = running[i] - 2.0 * mu * (zc + ez) + mu * mu * (ez - self.configs[b].regularization * zz)
                if value < max(_EXACT_DROP * exact[i], _EXACT_BELOW * power):  # never NaN
                    if formed is None:
                        formed = self.formed(history)[lo:hi]
                    value = exact[i] = float(_squared_errors(truth, formed[i]))
                running[i] = value
        values += _decibels([v / power for v in running])
        if hi < len(diff):
            values += _misalignment_rows(truth, power, self.weights[hi:], diff[hi:])
        return values


def _lag_group(config: FilterConfig) -> int | None:
    """The group size P of the lag ring a row of a recursive :class:`_Batch` reads, or None (the
    rule is in its docstring).  A unit-gain row's P is the divisor of L nearest sqrt(L), P = 1 at
    a prime L: from L alone, so that its bits never depend on the rows beside it."""
    length, group = config.filter_length, config.group_size
    if config.block_count == 1 and not config.is_memory:
        small = max(d for d in range(1, math.isqrt(length) + 1) if length % d == 0)
        return min((small, length // small), key=lambda d: abs(d - math.sqrt(length)))
    return group if min(group, config.projection_order) >= _SUM_FROM else None


def _row_run(config: FilterConfig) -> int:
    """The run of :class:`_Batch` rows ``config`` belongs to: 0 built, 1 summed in a recursive
    batch (built in any other), 2 unit-gain, 3 memory, 4 memory that sums in a recursive batch."""
    if config.block_count == 1 and not config.is_memory:
        return 2
    return 3 * config.is_memory + (_lag_group(config) is not None)


def _panel_batches(configs):
    """One zeroed :class:`_Batch` per (projection order, branch) of ``configs``,
    which share the filter length, as ``(indices, batch)``: row b of the batch
    is ``configs[indices[b]]``, in the batch's row order (built rows, summed
    rows, unit-gain rows, memory rows, those that sum last).  It is recursive
    from order ``_RECURSE_FROM`` on, the only batch with summed rows."""
    groups = {}
    for k, config in sorted(enumerate(configs), key=lambda e: _row_run(e[1])):
        groups.setdefault((config.projection_order, config.is_scalar), []).append(k)
    for (order, _), indices in groups.items():
        members = [configs[k] for k in indices]
        rings = np.zeros((sum(c.is_memory for c in members), *_ring_shape(members[0])))
        weights = np.zeros((len(members), members[0].filter_length))
        yield indices, _Batch(members, weights, rings, recursive=order >= _RECURSE_FROM)


class AdaptiveFilter:
    """Streaming wrapper owning state, input history and the desired window.

    One instance adapts over one logical signal stream; distinct instances
    are fully independent.  The config is validated once, at construction,
    and the state, history and window are built from it, so :meth:`process`
    runs the batch of one ``state`` keeps, without per-sample argument
    checks; rebinding ``state`` or its arrays, or copying the filter, is safe.
    """

    def __init__(self, config: FilterConfig):
        self.config = config
        self.reset()

    def reset(self) -> None:
        self.state = FilterState.initial(self.config)
        self.history = RegressorHistory(self.config.filter_length, self.config.projection_order)
        self._desired = np.zeros(self.config.projection_order)

    @property
    def weights(self) -> np.ndarray:
        return self.state.weights

    def process(self, sample: float, desired: float) -> float:
        """Consume one (input, desired) pair of real scalars, adapt, and return the a-priori error."""
        if not _is_real(desired):
            raise ValueError(f"desired must be a real scalar, got {desired!r}")
        self.history.push(sample)
        d = self._desired
        if d.size > 1:
            d[1:] = d[:-1]
        d[0] = desired
        return self.state._step(self.config, self.history, d)

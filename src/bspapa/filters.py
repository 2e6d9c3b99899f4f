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

The step itself is the kernel's (:mod:`bspapa.kernel`): ``filter_step`` and
``AdaptiveFilter`` run the batch of one a ``FilterState`` keeps, a lone
single-projection row for ``pnlms``/``bs-pnlms``, and ``run_experiment`` streams
the batches of a panel.  Every weighted regressor has the bits of the paper's
(P+M-1)*N-product build, :func:`build_weighted_regressor_efficient`.

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
from .gains import _as_float, _block_norms, _floored_gains, _is_integer, _is_real, _real_array, _real_scalar

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
        if not isinstance(self.variant, str) or self.variant not in _ALIASES:
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
    :class:`~bspapa.kernel._Batch` over views of the arrays, rebuilt when the config or either
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
            from .kernel import _Batch, _ScalarRow  # the kernel imports this module

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
    multiplies by X(n)); a later call for more rows makes it again, from the
    stored samples.  From then on each push writes one row twice.  It costs
    ``2*R*M`` floats (0.13 MiB for R=L=1024, M=8; 1.0 MiB for R=L=4096,
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
        """Append ``sample``, a real scalar by :func:`~bspapa.gains._is_real` within the float
        range, as the newest input x(n)."""
        if not isinstance(sample, float):
            sample = _real_scalar(sample, "sample")
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
    """Reject ``gains`` unless they are a :class:`GainVector` covering the ``filter_length``
    taps ``holder`` holds."""
    if not isinstance(gains, GainVector):
        raise ValueError(f"gains must be a GainVector, got {gains!r}")
    if gains.partition.filter_length != filter_length:
        raise ValueError(
            f"gains cover {gains.partition.filter_length} taps but {holder} holds {filter_length}"
        )


def _check_history(history) -> None:
    if not isinstance(history, RegressorHistory):
        raise ValueError(f"history must be a RegressorHistory, got {history!r}")


def build_weighted_regressor_direct(gains: GainVector, history: RegressorHistory) -> WeightedRegressor:
    """Weighted regressor by plain row scaling: M*L products; the reference for the efficient build."""
    _check_history(history)
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
    _check_history(history)
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
    x = _real_array(newest_input, "newest_input")
    if x.shape != (ring.shape[1],):
        raise ValueError(f"newest_input must be a vector of length {ring.shape[1]}, got shape {x.shape}")
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
    w = _real_array(weights, "weights")
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
    desired = _real_array(desired, "desired")
    if desired.shape != (config.projection_order,):
        raise ValueError(
            f"expected {config.projection_order} desired samples, got shape {desired.shape}"
        )
    weights = state.weights
    if not isinstance(weights, np.ndarray):
        raise ValueError(f"expected float weights of length {config.filter_length}, got {weights!r}")
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
        if not isinstance(desired, float):
            desired = _real_scalar(desired, "desired")
        self.history.push(sample)
        d = self._desired
        if d.size > 1:
            d[1:] = d[:-1]
        d[0] = desired
        return self.state._step(self.config, self.history, d)

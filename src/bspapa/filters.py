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

The kernel spends products on W only where that is faster.  A single
block has gain exactly one, so its W is X(n) itself, which the history
serves as a C-contiguous view (``RegressorHistory.regressor_rows``).  Other
rows weight that view in place: M*L products, each block gain copied over
its rows, then one multiply.  Rows with P and M both from ``_PLACE_FROM``
on place (P+M-1)*N products as the paper does.  All give the public
builders' bits.  Every row computes its gains in buffers made once per
batch, through the same gain rule as :func:`variant_gains`.

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
from .gains import _as_float, _block_norms, _floored_gains, _is_integer, _is_real

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
# A row places (P+M-1)*N products, rather than weighting X(n) in place, where
# both P and M reach this: only there is placing faster (see the README).
_PLACE_FROM = 16


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
        # validates the length and grouping; read every sample in the update loop
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

    The ring is stored M times, as the rows of one ``(M, 2*span)`` array,
    and row j is read starting j columns later.  Row j of ``X(n).T`` then
    sits ``2*span + 1`` floats after row j - 1, so :meth:`regressor_matrix`
    is a view with unit stride along the taps, which BLAS accepts for the
    error and Gram products.  The price is M copies of the ring (about
    1 MiB at L=4096, M=16) and 2M writes per push.

    Every array handed out is a view of the ring buffer, valid until the
    next push.  :meth:`regressor_matrix` and :meth:`block_windows` index
    read-only strided views built once per history (the block views once
    per group size), so they cost one integer index per call.

    :meth:`regressor_rows` serves X(n) itself C-contiguous, from a second
    ring of ``2*span`` rows of M floats, mirrored like the first: row i of
    X(n) is ring row ``head + i``, the M samples x(n - i) .. x(n - i - M + 1).
    The ring exists only once :meth:`regressor_rows` has been called (the
    step kernel calls it only for a batch with a unit-gain or in-place
    projection row), and from then on each push writes one row twice; it
    costs ``2*span*M`` floats (0.13 MiB at L=1024, M=8; 1.05 MiB at
    L=4096, M=16).
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
        rows = np.zeros((projection_order, 2 * span))
        self._buf = rows[0]
        self._head = 0
        step = rows.strides[1]
        # Entry h is the 2M slots a push at head position h writes: slot
        # 2j + k is column h + k*span of row j.
        self._slots = as_strided(rows, (span, 2 * projection_order), (step, span * step))
        # Entry h is X(n).T for head position h: row j is x(n - j).
        self._xt = as_strided(
            rows,
            (span, projection_order, filter_length),
            (step, (2 * span + 1) * step, step),
            writeable=False,
        )
        self._block_views: dict[int, np.ndarray] = {}
        self._rows = self._row_slots = None  # the row ring, made by regressor_rows()

    def __getstate__(self) -> tuple:
        """(L, M, head, one ring row): the M rows are equal, and every view is rebuilt."""
        return self.filter_length, self.projection_order, self._head, self._buf.copy()

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state[:2])
        self._head, self._buf.base[:] = state[2:]  # base: the (M, 2*span) rows

    def push(self, sample: float) -> None:
        """Append ``sample`` as the newest input x(n)."""
        self._head = head = (self._head - 1) % self._span
        self._slots[head] = sample
        if self._rows is not None:
            self._row_slots[head] = self._buf[head : head + self.projection_order]

    def extend(self, samples) -> None:
        """Push a batch of samples, oldest first."""
        for s in np.asarray(samples, dtype=float).ravel():
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
        return self._xt[self._head].T

    def regressor_rows(self) -> np.ndarray:
        """:meth:`regressor_matrix` as a C-contiguous view of the row ring.

        The first call allocates the ring and fills it from the stored
        samples; every later push keeps it current.
        """
        if self._rows is None:
            span, order = self._span, self.projection_order
            step = self._buf.strides[0]
            rows = np.empty((2 * span, order))
            # ring row r holds the M samples from window slot r mod span on
            rows[:span] = rows[span:] = as_strided(self._buf, (span, order), (step, step))
            row = rows.strides[0]
            # entry h is ring rows h and h + span, the two copies a push at head h writes
            self._row_slots = as_strided(rows, (span, 2, order), (row, span * row, step))
            self._rows = rows.view()
            self._rows.flags.writeable = False
        return self._rows[self._head : self._head + self.filter_length]

    def block_windows(self, group_size: int) -> np.ndarray:
        """The N-by-(P+M-1) samples each block of ``group_size`` taps reads.

        Row k holds window entries ``k*P .. k*P + P + M - 2``: every
        regressor entry of block k is one of them.
        """
        views = self._block_views.get(group_size)
        if views is None:
            BlockPartition(self.filter_length, group_size)  # validates divisibility
            step = self._buf.strides[0]
            shape = (
                self._span,
                self.filter_length // group_size,
                group_size + self.projection_order - 1,
            )
            views = as_strided(
                self._buf, shape, (step, group_size * step, step), writeable=False
            )
            self._block_views[group_size] = views
        return views[self._head]


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
    group = gains.partition.group_size
    windows = history.block_windows(group)
    matrix = np.empty((history.filter_length, history.projection_order))
    _place_products(gains.block_gains, windows, _rows_of(matrix, group))
    return WeightedRegressor(matrix, windows.size)


def _rows_of(matrix: np.ndarray, group_size: int) -> np.ndarray:
    """A C-contiguous L-by-M ``matrix`` as ``(N, P)`` items of M floats, one per row."""
    return matrix.view(np.dtype((np.void, matrix.strides[0]))).reshape(-1, group_size)


def _place_products(block_gains: np.ndarray, windows: np.ndarray, rows: np.ndarray) -> None:
    """The efficient build from block gains and ``block_windows`` output, into
    the :func:`_rows_of` view of its L-by-M matrix; no checks.  Row i of block
    k is the M products from (k, i) on, so the copy moves whole rows."""
    products = block_gains[:, None] * windows  # (N, P+M-1)
    placed = np.ndarray(rows.shape, rows.dtype, products, 0, (products.strides[0], products.itemsize))
    np.copyto(rows, placed)


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
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs length {b.shape} does not match matrix order {a.shape[0]}")
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"regularization must be finite and nonnegative, got {delta}")
    lu, solution = np.array(a, order="F"), b.copy()
    diagonal = lu.T.reshape(1, -1)[:, :: a.shape[0] + 1]
    delta = np.array([[_as_float(delta, "regularization")]])
    for error in _solve_stack([(lu, solution)], diagonal, delta).values():
        raise error
    return solution


def _solve_stack(systems, diagonal: np.ndarray, delta: np.ndarray) -> dict:
    """Solve ``(lu + delta[b]*I) z = rhs`` in place for the b-th ``(lu, rhs)``; no checks.

    Each ``lu`` is F-contiguous, so LAPACK factors it in place; ``diagonal``
    is their ``(B, M)`` diagonal view and ``delta`` a ``(B, 1)`` column (off
    the diagonal ``x + 0.0`` is ``x``).  The pivot test is per system,
    ``smallest <= bound`` with NaN-propagating reductions, so a NaN pivot is
    no collapse.  It is skipped when ``min > scale * max`` over the whole
    stack in Python floats passes every system at once: Python's ``min`` and
    ``max`` may skip a NaN, but a system with a NaN pivot never fails, and
    every other system's pivots lie between the two.
    Returns ``{b: SingularSystemError}``; those ``rhs`` stay unsolved.
    """
    diagonal += delta
    factors = [dgetrf(lu, overwrite_a=True) for lu, _ in systems]
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
        if b not in failed and dgetrs(lu, piv, rhs, overwrite_b=True)[1] < 0:
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

    A step is six layers, one method each: gains, error, build, Gram, solve,
    update.  The weights are the rows of one ``(B, L)`` block, in three runs:
    built rows, unit-gain rows, memory rows.  The one gain pass fills each
    other row's own gain buffers, in the order the build reads the rows
    (in-place, placed, memory), and the build only weights.  Built rows
    weight their regressor into a C-contiguous ``(Bb, L, M)`` stack: they copy
    their block gains over their slot and multiply it by X(n), the history's
    :meth:`~RegressorHistory.regressor_rows` view, in place, or place the
    efficient build's products (P and M from ``_PLACE_FROM`` on).  A unit-gain
    row (one block, of gain exactly one) uses that view itself, and its Gram
    matrix is :func:`_unit_gram`, or :attr:`unit_gram` when a caller has formed
    it ahead (``bench._stream_batch`` does, in a helper process).  Memory rings
    are stacked as ``(Bm, 2M, L)`` under one head, whose row is weighted by
    x(n) the same way.  Each stacked product equals the per-filter product bit
    for bit.  Only a unit-gain or in-place row reads the row view, so only its
    history makes the row ring; a step that places nothing allocates no array
    of L floats.  A single-projection batch is its :class:`_ScalarRow` steps.  No checks.
    """

    def __init__(self, configs, weights: np.ndarray, rings: np.ndarray, head: int = 0):
        self.configs, self.weights, self.rings, self.head = configs, weights, rings, head
        (count, length), order = weights.shape, configs[0].projection_order
        self.scalar, self.plain = configs[0].is_scalar, count - len(rings)
        self.unit_gram = None  # X(n).T X(n) for the step to come, when formed ahead
        if self.scalar:  # the rows alone, each with an update row of its own
            self.units = range(0)
            self._scalar_rows = [_ScalarRow(*row) for row in zip(configs, weights, np.empty(weights.shape))]
            return
        p = self.plain
        built = p - sum(c.block_count == 1 for c in configs[:p])
        self.units = range(built, p)  # the unit-gain rows
        # one step size a tap: a (B, 1) column would make the multiply buffer B*L floats
        self.mu = np.repeat([[c.step_size] for c in configs], length, axis=1)
        self.delta = np.array([[c.regularization] for c in configs])
        error, update = np.empty((count, order, 1)), np.empty((count, length, 1))
        gram, lu = np.empty((count, order, order)), np.empty((count, order, order))
        self._columns, self._errors, self._updates = weights[:, :, None], error, update[:, :, 0]
        self._grams, self._lu = gram, lu.transpose(0, 2, 1)
        self._diagonal = lu.reshape(count, -1)[:, :: order + 1]
        self._rhs = error[:, :, 0]
        self._systems = list(zip(self._lu, self._rhs))  # F-contiguous LU, rhs row
        weighted = np.empty((built, length, order))
        rows = list(zip(configs, weights, weighted))  # the built rows: zip stops at the unit rows
        in_place = [row for row in rows if min(row[0].group_size, order) < _PLACE_FROM]
        placed = [row for row in rows if min(row[0].group_size, order) >= _PLACE_FROM]
        memory = list(zip(configs[p:], weights[p:], rings))
        # The gain pass's (config, weights, gains, squares) a row, in the order the build reads them.
        self._gained = [(c, w, np.empty(c.block_count), _blocks(np.empty(length), c))
                        for c, w, _ in in_place + placed + memory]
        # Built rows weight their slot, as (N, P*M) blocks, in place; see _PLACE_FROM.
        self._in_place = [(c, m, m.reshape(c.block_count, -1)) for c, _, m in in_place]
        self._placed = [(c, _rows_of(m, c.group_size)) for c, _, m in placed]
        self._memory = [  # per head: the ring row a push weights, as (N, P) blocks, and its mirror
            [(r, _blocks(r, c), m) for r, m in zip(ring, ring[order:])] for c, _, ring in memory]
        # (weighted, gram, error, update): the built rows' part, the unit and ring rows' stacks
        self._parts = [(weighted, gram[:built], error[:built], update[:built])] if built else []
        self._unit_stacks = (gram[built:p], error[built:p], update[built:p]) if self.units else None
        self._reads_rows = bool(self.units or self._in_place)
        self._ring_stacks = (gram[p:], error[p:], update[p:])
        # Indexed by head: the (Bm, L, M) regressors as in FilterState.
        ring, row, tap = rings.strides
        shape = (order, len(rings), length, order)
        self._ring_views = np.ndarray(shape, rings.dtype, rings, 0, (row, ring, tap, row))

    def without(self, rows) -> "_Batch":
        """A new batch of copies of every filter but ``rows``."""
        keep = [b for b in range(len(self.configs)) if b not in rows]
        ring_rows = [b - self.plain for b in keep if b >= self.plain]
        configs = [self.configs[b] for b in keep]
        return _Batch(configs, self.weights[keep], self.rings[ring_rows], self.head)

    def step(self, history: RegressorHistory, desired: np.ndarray):
        """Step every filter a sample, layer by layer; return the a-priori errors and ``{row: failure}``."""
        if self.scalar:  # one call a row; a failed row keeps its weights
            steps = [row(history, desired) for row in self._scalar_rows]
            return [prior for prior, _ in steps], {b: failed for b, (_, failed) in enumerate(steps) if failed}
        gains = self._gains()
        prior = self._error(history, desired)
        parts = self._build(history, gains)
        self._gram(history, parts)
        failed = self._solve()
        self._update(parts, failed)
        return prior, failed

    def _gains(self) -> list:
        """Every gained row's block gains, in buffers of its own, in the order the build reads them."""
        return [_block_gains(config, w, gains, squares) for config, w, gains, squares in self._gained]

    def _error(self, history: RegressorHistory, desired: np.ndarray) -> list:
        """The a-priori errors ``d - X.T w``, into the solve's right-hand sides; return each row's e(n)."""
        np.matmul(history._xt[history._head], self._columns, out=self._errors)
        np.subtract(desired, self._rhs, out=self._rhs)
        return self._rhs[:, 0].tolist()

    def _build(self, history: RegressorHistory, gains: list) -> list:
        """Weight the gained rows' regressors by ``gains``; return the (W, Gram, error, update) stacks."""
        gains, parts = iter(gains), self._parts
        if self._reads_rows:
            regressor = history.regressor_rows()
            for (_, out, blocks), g in zip(self._in_place, gains):
                _weigh(g, regressor, out, blocks)
            if self._unit_stacks:
                parts = [*parts, (regressor, *self._unit_stacks)]
        for (config, out), g in zip(self._placed, gains):
            _place_products(g, history.block_windows(config.group_size), out)
        if self._memory:
            self.head = head = (self.head - 1) % history.projection_order
            x = history._buf[history._head : history._head + self.weights.shape[1]]
            for heads, g in zip(self._memory, gains):
                row, blocks, mirror = heads[head]
                _weigh(g, x, row, blocks)
                np.copyto(mirror, row)
            parts = [*parts, (self._ring_views[head], *self._ring_stacks)]
        return parts

    def _gram(self, history: RegressorHistory, parts: list) -> None:
        """Each stack's Gram matrix ``X.T W``; the unit-gain rows' is copied from
        :attr:`unit_gram` when it is set."""
        units = self._unit_stacks and self._unit_stacks[0]
        for weighted, gram, _, _ in parts:
            if gram is not units:
                np.matmul(history._xt[history._head], weighted, out=gram)
            elif self.unit_gram is None:
                _unit_gram(history, gram)
            else:
                np.copyto(gram, self.unit_gram)

    def _solve(self) -> dict:
        """Solve ``(Gram + delta*I) z = e`` in place of the errors; return ``{row: failure}``."""
        np.copyto(self._lu, self._grams)
        return _solve_stack(self._systems, self._diagonal, self.delta)

    def _update(self, parts: list, failed: dict) -> None:
        """``w += mu * W z`` on every row but the failed ones."""
        for weighted, _, error, out in parts:
            np.matmul(weighted, error, out=out)
        self._updates *= self.mu
        if failed:
            self._updates[list(failed)] = 0.0
        self.weights += self._updates


def _unit_gram(history: RegressorHistory, out: np.ndarray) -> None:
    """X(n).T X(n), the Gram matrix of every unit-gain row, into ``out``: one, or a stack
    of them.  A helper forming it ahead makes this same call, so both give the same bits."""
    np.matmul(history._xt[history._head], history.regressor_rows(), out=out)


def _unit_batches(configs) -> int:
    """How many of the batches :func:`_panel_batches` makes of ``configs`` hold unit-gain rows."""
    return len({c.projection_order for c in configs if _row_run(c) == 1 and not c.is_scalar})


def _row_run(config: FilterConfig) -> int:
    """The run of :class:`_Batch` rows ``config`` belongs to: 0 built, 1 unit-gain, 2 memory."""
    return 2 if config.is_memory else int(config.block_count == 1)


def _panel_batches(configs):
    """One zeroed :class:`_Batch` per (projection order, branch) of ``configs``,
    which share the filter length, as ``(indices, batch)``: row b of the batch
    is ``configs[indices[b]]``, in the batch's row order (built rows, unit-gain
    rows, memory rows)."""
    groups = {}
    for k, config in sorted(enumerate(configs), key=lambda e: _row_run(e[1])):
        groups.setdefault((config.projection_order, config.is_scalar), []).append(k)
    for indices in groups.values():
        members = [configs[k] for k in indices]
        rings = np.zeros((sum(c.is_memory for c in members), *_ring_shape(members[0])))
        yield indices, _Batch(members, np.zeros((len(members), members[0].filter_length)), rings)


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
        """Consume one (input, desired) pair, adapt, and return the a-priori error."""
        self.history.push(sample)
        d = self._desired
        if d.size > 1:
            d[1:] = d[:-1]
        d[0] = desired
        return self.state._step(self.config, self.history, d)

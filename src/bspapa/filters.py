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
pivot test per step.  ``filter_step`` and ``AdaptiveFilter`` run it for a
single filter over views of a ``FilterState``; ``_panel_batches`` builds the
zeroed batches of a panel, which ``run_experiment`` streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dgetrf, dgetrs

from .gains import BlockPartition, GainVector, StallGuards, _block_norms, _floored_gains

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


class SingularSystemError(np.linalg.LinAlgError):
    """Projection system singular to working precision."""

    def __init__(self, message: str, pivot: float):
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class FilterConfig:
    """Static description of one adaptive filter.

    The variant name pins the axes it implies (see the module table):
    ``apa`` forces a single full-length block, ``papa``/``mpapa``/``pnlms``
    force one-tap blocks, and the ``*-pnlms`` members require a projection
    order of one.  The block-sparse members need an explicit ``group_size``
    dividing ``filter_length``.  The weighted regressor is always built
    with per-block product reuse (see :func:`build_weighted_regressor_efficient`).
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
        if self.projection_order < 1:
            raise ValueError(f"projection_order must be >= 1, got {self.projection_order}")
        # step_size 0 is allowed: it freezes the filter, which is useful as a
        # null reference in benchmark panels.
        if not 0.0 <= self.step_size <= 2.0:
            raise ValueError(f"step_size must lie in [0, 2], got {self.step_size}")
        if not 0.0 <= self.regularization < math.inf:
            raise ValueError(f"regularization must be finite and nonnegative, got {self.regularization}")
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
        BlockPartition(self.filter_length, self.group_size)  # validates the length and grouping

    # cached: these are read every sample in the update loop
    @cached_property
    def partition(self) -> BlockPartition:
        return BlockPartition(self.filter_length, self.group_size)

    @property
    def block_count(self) -> int:
        return self.filter_length // self.group_size

    @cached_property
    def is_memory(self) -> bool:
        return _ALIASES[self.variant][1]

    @cached_property
    def is_scalar(self) -> bool:
        return _ALIASES[self.variant][2] == 1

    @property
    def multiplications_per_step(self) -> int:
        """Products spent building the weighted regressor each sample."""
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
    shifting the whole matrix, at the cost of M*L extra floats.
    """

    weights: np.ndarray
    memory_ring: np.ndarray | None = None
    memory_head: int = 0

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
    """

    def __init__(self, filter_length: int, projection_order: int):
        if filter_length < 1:
            raise ValueError(f"filter_length must be positive, got {filter_length}")
        if projection_order < 1:
            raise ValueError(f"projection_order must be >= 1, got {projection_order}")
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

    def push(self, sample: float) -> None:
        """Append ``sample`` as the newest input x(n)."""
        self._head = (self._head - 1) % self._span
        self._slots[self._head] = sample

    def extend(self, samples) -> None:
        """Push a batch of samples, oldest first."""
        for s in np.asarray(samples, dtype=float).ravel():
            self.push(s)

    def window(self) -> np.ndarray:
        """Newest-first view of the stored samples (valid until the next push)."""
        return self._buf[self._head : self._head + self._span]

    def input_vector(self, delay: int = 0) -> np.ndarray:
        """x(n - delay) as a length-L vector, newest sample first."""
        if not 0 <= delay < self.projection_order:
            raise ValueError(f"delay must lie in [0, {self.projection_order - 1}], got {delay}")
        return self.window()[delay : delay + self.filter_length]

    def regressor_matrix(self) -> np.ndarray:
        """The L-by-M matrix whose column j is the input vector delayed j samples."""
        return self._xt[self._head].T

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
    _push_memory(ring[head : head + 1], ring[head + order : head + order + 1], [gains.expand()], x)
    return state.memory_regressor


def _push_memory(newest: np.ndarray, mirror: np.ndarray, tap_gains, x: np.ndarray) -> None:
    """Write ``tap_gains[k] * x`` into row k of ``newest`` and copy it to ``mirror``; no checks.

    ``newest`` and ``mirror`` are the two copies of the head row of K rings
    of :class:`FilterState` layout, as ``(K, L)`` views.
    """
    for row, gains in zip(newest, tap_gains):
        np.multiply(gains, x, out=row)
    np.copyto(mirror, newest)


def solve_regularized(matrix, delta: float, rhs) -> np.ndarray:
    """Solve ``(matrix + delta*I) z = rhs`` by LU with partial pivoting.

    One general factorization covers all variants, since the memory members
    produce nonsymmetric systems.  The LAPACK routines ``dgetrf``/``dgetrs``
    are called directly, without scipy's ``lu_factor``/``lu_solve`` wrappers.
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
    for error in _solve_stack([(lu, solution)], diagonal, np.array([[delta]])).values():
        raise error
    return solution


def _solve_stack(systems, diagonal: np.ndarray, delta: np.ndarray) -> dict:
    """Solve ``(lu + delta[b]*I) z = rhs`` in place for the b-th ``(lu, rhs)``; no checks.

    Each ``lu`` is F-contiguous, so LAPACK factors it in place; ``diagonal``
    is their ``(B, M)`` diagonal view and ``delta`` a ``(B, 1)`` column (off
    the diagonal ``x + 0.0`` is ``x``).  One pivot test covers the stack, in
    the per-system form ``smallest <= bound``, so a NaN pivot is no collapse.
    Returns ``{b: SingularSystemError}``; those ``rhs`` stay unsolved.
    """
    diagonal += delta
    factors = [dgetrf(lu, overwrite_a=True) for lu, _ in systems]
    magnitudes, scale = np.abs(diagonal), diagonal.shape[1] * _EPS
    smallest = np.minimum.reduce(magnitudes, 1).tolist()  # NaN-propagating, as np.min
    largest = np.maximum.reduce(magnitudes, 1).tolist()
    failed = {}
    for b, ((lu, rhs), (_, piv, info), pivot, top) in enumerate(zip(systems, factors, smallest, largest)):
        if info < 0:
            raise ValueError(f"dgetrf rejected argument {-info}")
        if pivot <= scale * top:
            failed[b] = SingularSystemError(
                f"projection system singular to working precision (pivot {pivot:.3e})", pivot=pivot
            )
        elif dgetrs(lu, piv, rhs, overwrite_b=True)[1] < 0:
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


def _block_gains(config: FilterConfig, weights: np.ndarray) -> np.ndarray:
    """The block gains of :func:`variant_gains` as a bare array; no checks."""
    if config.block_count == 1:
        return _UNIT_GAIN
    if config.group_size == 1:
        return _floored_gains(np.abs(weights), config.guards)
    return _floored_gains(_block_norms(weights, config.group_size), config.guards)


def _per_tap(block_gains: np.ndarray, group_size: int) -> np.ndarray:
    """The values of ``GainVector.expand()``; one-tap gains are returned as they are."""
    return block_gains if group_size == 1 else np.repeat(block_gains, group_size)


def filter_step(
    config: FilterConfig, state: FilterState, history: RegressorHistory, desired
) -> float:
    """Advance one adaptation step, mutating ``state``; return the a-priori error.

    ``history`` must already contain x(n); ``desired`` holds the newest M
    desired samples, newest first.  Gains are recomputed from the current
    weights every call; the returned ``d(n) - x(n).T @ w`` uses the old weights.
    The arguments are checked against ``config`` on every call; the step
    itself is the batch kernel :class:`_Batch` over this one filter.
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
    if config.is_memory and (state.memory_ring is None or state.memory_ring.shape != _ring_shape(config)):
        raise ValueError("state holds no memory regressor of the config's shape")
    return _Batch.of(config, state).step_one(state, history, desired)


class _Batch:
    """The step kernel: B filters sharing (L, M) and the branch, stepped as one.

    The weights are the rows of one ``(B, L)`` block; memory members come
    last, their rings stacked as ``(Bm, 2M, L)`` under one head.  Each
    stacked product (error, Gram over a C-contiguous ``(B, L, M)`` build
    stack or the ring view, update) equals the per-filter product bit for
    bit, and the pieces are the bodies the public functions wrap.  No checks.
    """

    def __init__(self, configs, weights: np.ndarray, rings: np.ndarray, head: int = 0):
        self.configs, self.weights, self.rings, self.head = configs, weights, rings, head
        (count, length), order = weights.shape, configs[0].projection_order
        self.scalar, self.plain = configs[0].is_scalar, count - len(rings)
        p = self.plain
        self.mu = np.array([[c.step_size] for c in configs])
        self.delta = np.array([[c.regularization] for c in configs])
        error, update = np.empty((count, order, 1)), np.empty((count, length, 1))
        gram, lu = np.empty((count, order, order)), np.empty((count, order, order))
        self._columns, self._error, self._update = weights[:, :, None], error, update[:, :, 0]
        self._gram, self._lu = gram, lu.transpose(0, 2, 1)
        self._diagonal = lu.reshape(count, -1)[:, :: order + 1]
        self._rhs = error[:, :, 0]
        self._systems = list(zip(self._lu, self._rhs))  # F-contiguous LU, rhs row
        weighted = self._update if self.scalar else np.empty((p, length, order))
        # scalar rows take their weighted input, projection rows their build in _rows_of form
        out = weighted if self.scalar else [_rows_of(m, c.group_size) for c, m in zip(configs, weighted)]
        self._plain = list(zip(configs, weights, out))  # zip stops at the memory rows
        self._memory = list(zip(configs[p:], weights[p:]))
        # (weighted, gram, error, update): the plain rows' part, the ring rows' stacks
        self._parts = [(weighted, gram[:p], error[:p], update[:p])] if p else []
        self._ring_stacks = (gram[p:], error[p:], update[p:])
        # Indexed by head: the ring rows, and the (Bm, L, M) regressors as in FilterState.
        self._ring_rows = rings.transpose(1, 0, 2)
        ring, row, tap = rings.strides
        shape = (order, len(rings), length, order)
        self._ring_views = np.ndarray(shape, rings.dtype, rings, 0, (row, ring, tap, row))

    @classmethod
    def of(cls, config: FilterConfig, state: FilterState) -> "_Batch":
        """The batch of one filter, over views of ``state``'s arrays."""
        ring = state.memory_ring
        rings = np.empty((0, *_ring_shape(config))) if ring is None else ring[None]
        return cls([config], state.weights[None], rings, state.memory_head)

    def without(self, rows) -> "_Batch":
        """A new batch of copies of every filter but ``rows``."""
        keep = [b for b in range(len(self.configs)) if b not in rows]
        ring_rows = [b - self.plain for b in keep if b >= self.plain]
        configs = [self.configs[b] for b in keep]
        return _Batch(configs, self.weights[keep], self.rings[ring_rows], self.head)

    def step_one(self, state: FilterState, history: RegressorHistory, desired: np.ndarray) -> float:
        """:meth:`step` for one filter: sync ``state``'s head, raise its failure, return its error."""
        self.head = state.memory_head
        prior, failed = self.step(history, desired)
        state.memory_head = self.head
        for error in failed.values():
            raise error
        return prior[0]

    def step(self, history: RegressorHistory, desired: np.ndarray):
        """Advance every filter a sample; return the a-priori errors and ``{row: failure}``
        (a failed row keeps its weights)."""
        weights, update, failed = self.weights, self._update, {}
        if self.scalar:  # per row: two dot products, cheapest as Python floats
            x, prior = history.input_vector(), []
            for b, (config, w, weighted) in enumerate(self._plain):
                prior.append(desired[0] - float(np.dot(x, w)))
                np.multiply(_per_tap(_block_gains(config, w), config.group_size), x, out=weighted)
                denominator = float(np.dot(x, weighted)) + config.regularization
                if denominator == 0.0:
                    failed[b] = SingularSystemError(
                        "scalar normalization is zero (silent input with delta=0)", pivot=0.0
                    )
                else:
                    weighted *= config.step_size * prior[b] / denominator
        else:
            regressor_t, rhs = history._xt[history._head], self._rhs  # X.T, error rows
            np.matmul(regressor_t, self._columns, out=self._error)
            np.subtract(desired, rhs, out=rhs)
            prior = rhs[:, 0].tolist()
            for config, w, out in self._plain:
                _place_products(_block_gains(config, w), history.block_windows(config.group_size), out)
            parts, rows, order = self._parts, self._ring_rows, history.projection_order
            if self._memory:
                self.head = head = (self.head - 1) % order
                gains = [_per_tap(_block_gains(c, w), c.group_size) for c, w in self._memory]
                _push_memory(rows[head], rows[head + order], gains, history.input_vector())
                parts = [*parts, (self._ring_views[head], *self._ring_stacks)]
            for weighted, gram, _, _ in parts:
                np.matmul(regressor_t, weighted, out=gram)
            np.copyto(self._lu, self._gram)
            failed = _solve_stack(self._systems, self._diagonal, self.delta)
            for weighted, _, error, out in parts:
                np.matmul(weighted, error, out=out)
            update *= self.mu
        for b in failed:
            update[b] = 0.0
        weights += update
        return prior, failed


def _panel_batches(configs):
    """One zeroed :class:`_Batch` per (projection order, branch) of ``configs``,
    which share the filter length, as ``(indices, batch)``: row b of the batch
    is ``configs[indices[b]]``, memory members last."""
    groups = {}
    for k, config in sorted(enumerate(configs), key=lambda e: e[1].is_memory):
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
    runs the step kernel, as a batch of one over views of ``state``, without
    per-sample argument checks.
    """

    def __init__(self, config: FilterConfig):
        self.config = config
        self.reset()

    def reset(self) -> None:
        self.state = FilterState.initial(self.config)
        self.history = RegressorHistory(self.config.filter_length, self.config.projection_order)
        self._desired = np.zeros(self.config.projection_order)
        self._batch = _Batch.of(self.config, self.state)

    @property
    def weights(self) -> np.ndarray:
        return self.state.weights

    def process(self, sample: float, desired: float) -> float:
        """Consume one (input, desired) pair, adapt, and return the a-priori error."""
        self.history.push(sample)
        d = self._desired
        d[1:] = d[:-1]
        d[0] = desired
        return self._batch.step_one(self.state, self.history, d)

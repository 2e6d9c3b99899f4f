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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dgetrf, dgetrs

from .gains import BlockPartition, GainVector, StallGuards, block_l2_norms, proportionate_gains

__all__ = [
    "VARIANTS",
    "SingularSystemError",
    "FilterConfig",
    "FilterState",
    "RegressorHistory",
    "WeightedRegressor",
    "AdaptiveFilter",
    "error_vector",
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
        if self.filter_length < 1:
            raise ValueError(f"filter_length must be positive, got {self.filter_length}")
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
        BlockPartition(self.filter_length, self.group_size)  # validates divisibility

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


@dataclass(eq=False)
class FilterState:
    """Mutable per-stream state: weights plus the memory-variant regressor."""

    weights: np.ndarray
    memory_regressor: np.ndarray | None = None
    step_counter: int = 0

    @classmethod
    def initial(cls, config: FilterConfig) -> "FilterState":
        mem = None
        if config.is_memory:
            mem = np.zeros((config.filter_length, config.projection_order))
        return cls(weights=np.zeros(config.filter_length), memory_regressor=mem)


class RegressorHistory:
    """Sliding input window able to materialize the L-by-M regressor.

    Keeps the most recent ``filter_length + projection_order - 1`` samples
    in a ring buffer mirrored at two offsets, so the newest-first window is
    always one contiguous slice.  Samples earlier than the stream start read
    as zero.

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
        self._span = filter_length + projection_order - 1
        self._buf = np.zeros(2 * self._span)
        self._head = 0
        step = self._buf.strides[0]
        # Entry h is X(n).T for head position h: row j is x(n - j).
        self._xt = as_strided(
            self._buf,
            (self._span, projection_order, filter_length),
            (step, step, step),
            writeable=False,
        )
        self._block_views: dict[int, np.ndarray] = {}

    def push(self, sample: float) -> None:
        """Append ``sample`` as the newest input x(n)."""
        self._head = (self._head - 1) % self._span
        self._buf[self._head] = sample
        self._buf[self._head + self._span] = sample

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


def error_vector(history: RegressorHistory, desired, weights) -> np.ndarray:
    """A-priori error vector ``d - X.T @ weights``, newest component first.

    ``desired`` must hold the latest M desired samples, newest first.
    """
    d = np.asarray(desired, dtype=float)
    w = np.asarray(weights, dtype=float)
    if d.shape != (history.projection_order,):
        raise ValueError(
            f"expected {history.projection_order} desired samples, got shape {d.shape}"
        )
    if w.shape != (history.filter_length,):
        raise ValueError(
            f"expected a weight vector of length {history.filter_length}, got shape {w.shape}"
        )
    return d - history.regressor_matrix().T @ w


def build_weighted_regressor_direct(gains: GainVector, history: RegressorHistory) -> WeightedRegressor:
    """Weighted regressor by plain row scaling: M*L products; the reference for the efficient build."""
    if gains.partition.filter_length != history.filter_length:
        raise ValueError(
            f"gains cover {gains.partition.filter_length} taps but history holds "
            f"{history.filter_length}"
        )
    matrix = gains.expand()[:, None] * history.regressor_matrix()
    return WeightedRegressor(matrix, history.projection_order * history.filter_length)


def build_weighted_regressor_efficient(gains: GainVector, history: RegressorHistory) -> WeightedRegressor:
    """Weighted regressor with per-block product reuse: (P+M-1)*N products.

    Within a block all regressor entries are the block gain times one of
    P+M-1 consecutive input samples, so each product is computed once and
    placed through a strided view in which entry (k, i, j) reads product
    (k, i + j).  The result is bit-exact equal to the direct construction.
    """
    if gains.partition.filter_length != history.filter_length:
        raise ValueError(
            f"gains cover {gains.partition.filter_length} taps but history holds "
            f"{history.filter_length}"
        )
    group = gains.partition.group_size
    order = history.projection_order
    products = gains.block_gains[:, None] * history.block_windows(group)  # (N, P+M-1)
    row, step = products.strides
    placed = np.ndarray(
        (products.shape[0], group, order), buffer=products, strides=(row, step, step)
    )
    matrix = placed.reshape(history.filter_length, order)
    return WeightedRegressor(matrix, products.size)


def update_memory_regressor(state: FilterState, gains: GainVector, newest_input) -> np.ndarray:
    """Shift the memory regressor and weight the newest input column.

    The first column becomes the per-tap gains (from the current weights)
    times x(n); older columns keep the gains they were built with.  Exactly
    L products are spent.
    """
    mem = state.memory_regressor
    if mem is None:
        raise ValueError("memory regressor is only maintained for mpapa/bs-mpapa filters")
    x = np.asarray(newest_input, dtype=float)
    if x.shape != (mem.shape[0],):
        raise ValueError(f"expected an input vector of length {mem.shape[0]}, got shape {x.shape}")
    mem[:, 1:] = mem[:, :-1]
    mem[:, 0] = gains.expand() * x
    return mem


def solve_regularized(matrix, delta: float, rhs) -> np.ndarray:
    """Solve ``(matrix + delta*I) z = rhs`` by LU with partial pivoting.

    One general factorization covers all variants, since the memory members
    produce nonsymmetric systems.  The LAPACK routines ``dgetrf``/``dgetrs``
    are called directly, without scipy's ``lu_factor``/``lu_solve`` wrappers.
    A pivot collapsing to working precision raises
    :class:`SingularSystemError` carrying the offending magnitude, and no
    warning is emitted on that path.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs length {b.shape} does not match matrix order {a.shape[0]}")
    if delta < 0:
        raise ValueError(f"regularization must be nonnegative, got {delta}")
    system = a + delta * np.eye(a.shape[0])
    lu, piv, info = dgetrf(system, overwrite_a=True)
    if info < 0:
        raise ValueError(f"dgetrf rejected argument {-info}")
    pivots = np.abs(lu.diagonal())
    smallest = float(pivots.min())
    if smallest <= a.shape[0] * _EPS * float(pivots.max()):
        raise SingularSystemError(
            f"projection system singular to working precision (pivot {smallest:.3e})",
            pivot=smallest,
        )
    solution, info = dgetrs(lu, piv, b)
    if info < 0:
        raise ValueError(f"dgetrs rejected argument {-info}")
    return solution


def variant_gains(config: FilterConfig, weights) -> GainVector:
    """Gains from the grouping alone: the identity for one block spanning the
    filter, coefficient magnitudes for one-tap blocks, block Euclidean norms
    otherwise.  The first two are the block rule's exact values: a lone
    floored norm over itself is one, and ``sqrt(w*w) == |w|`` short of
    overflow (underflowed taps sit below the ``rho*q`` floor anyway).
    """
    part = config.partition
    if part.block_count == 1:
        return GainVector(np.ones(1), part)
    if part.group_size == 1:
        return proportionate_gains(np.abs(np.asarray(weights, dtype=float)), config.guards, part)
    return proportionate_gains(block_l2_norms(weights, part), config.guards, part)


def filter_step(
    config: FilterConfig, state: FilterState, history: RegressorHistory, desired
) -> float:
    """Advance one adaptation step, mutating ``state``; return the a-priori error.

    ``history`` must already contain x(n); ``desired`` holds the newest M
    desired samples, newest first.  Gains are recomputed from the current
    weights every call; the returned ``d(n) - x(n).T @ w`` uses the old weights.
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
    gains = variant_gains(config, weights)
    mu = config.step_size
    delta = config.regularization

    if config.is_scalar:
        x = history.input_vector()
        prior = desired[0] - float(x @ weights)
        weighted = gains.expand() * x
        denom = float(x @ weighted) + delta
        if denom == 0.0:
            raise SingularSystemError(
                "scalar normalization is zero (silent input with delta=0)", pivot=0.0
            )
        weights += (mu * prior / denom) * weighted
    else:
        regressor_t = history.regressor_matrix().T
        err = desired - regressor_t @ weights
        prior = float(err[0])
        if config.is_memory:
            weighted = update_memory_regressor(state, gains, history.input_vector())
        else:
            weighted = build_weighted_regressor_efficient(gains, history).matrix
        gram = regressor_t @ weighted
        correction = solve_regularized(gram, delta, err)
        weights += mu * (weighted @ correction)

    state.step_counter += 1
    return prior


class AdaptiveFilter:
    """Streaming wrapper owning state, input history and the desired window.

    One instance adapts over one logical signal stream; distinct instances
    are fully independent.
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
        d[1:] = d[:-1]
        d[0] = desired
        return filter_step(self.config, self.state, self.history, d)

"""Reference implementations the production step is checked against.

Two kinds live here, both independent of the production hot path:

* ``reference_*``: the previous constructions of the step's pieces, built
  with ``sliding_window_view`` and scipy's ``lu_factor``/``lu_solve``, plus a
  ``reference_filter_step`` composed of them.  The production path performs
  the same floating-point operations, so it must agree with these bit for
  bit.  With ``recursive=True`` the step takes the fast affine projection
  recursions (Gay & Tavathia, ICASSP 1995) that a recursive panel batch
  takes: only e(n)[0] is a product, e(n)[1:] is the last a-posteriori error
  ``(1 - mu)*e + mu*delta*z``, and the Gram matrix of a unit-gain or memory
  row is last step's, shifted down the diagonal, with a new column and row 0.
  A gained memoryless row with P and M both from ``_SUMMED_FROM`` on builds no
  weighted regressor: its Gram matrix is ``sum_k g_k R_k``, each block
  correlation read from the row's past lag vectors
  ``r(m)[j] = sum_{i<P} x(m - i) x(m - i - j)``, and its update is
  ``g * (X z)``.  A unit-gain row, always, with P the divisor of L nearest
  sqrt(L), and a memory row with P and M from ``_SUMMED_FROM`` on read their
  new column 0 from the same lag vectors, ``sum_k g_k(n) r(n - kP)``, and a
  memory row its row 0 too, ``sum_k g_k(n - j) r(n - kP)[j]`` from its last
  M block gains (see :func:`lag_group`).  A recursive unit-gain row holds
  fictitious weights: ``state.weights`` is w-hat, and ``state.fictitious`` the
  M floats E, with ``w = w-hat + mu * X[:, :M-1] @ E[:M-1]``
  (:meth:`ReferenceState.formed`); its error is ``d(n) - x(n) @ w-hat - mu *
  G(n)[0, 1:] @ E[:M-1]``, and its update ``E = [0, E[:M-1]] + z`` (z = 0 for
  a failed solve), then ``w-hat += (mu * E[M-1]) * x(n - M + 1)``.
* ``DenseReference``: one adaptation step written straight from the update
  equations (Paleologu, Ciochina & Benesty, "An efficient proportionate
  affine projection algorithm for echo cancellation", IEEE SPL 2010), with
  an explicit diagonal gain matrix ``G``, an explicit regressor ``X`` and a
  dense solve.  It agrees with production to rounding.  Built for a
  classical member (``apa`` with ``G = I``, the per-tap ``|w|`` gains of
  ``papa``/``pnlms``/``mpapa``, the block norms of ``bs-pnlms``) it is also
  the classical update that acceptance criterion 1 holds production
  ``bs-papa``/``bs-mpapa`` to, through :func:`reduction_gaps`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lu_factor, lu_solve
from scipy.signal import lfilter

from bspapa import AdaptiveFilter, FilterConfig, gen_excitation, make_block_sparse_ir
from bspapa.bench import _substream_seed

_PER_TAP = ("papa", "mpapa", "pnlms")
_MEMORY = ("mpapa", "bs-mpapa")
_SCALAR = ("pnlms", "bs-pnlms")
# min(P, M) from which a recursive step sums a gained memoryless row's block correlations
_SUMMED_FROM = 16


def reference_regressor_matrix(history) -> np.ndarray:
    """L-by-M regressor through a sliding window over the history."""
    stacked = sliding_window_view(history.window(), history.filter_length)
    return stacked[: history.projection_order].T


def reference_efficient_build(block_gains, group_size: int, history) -> np.ndarray:
    """Efficient weighted regressor placed through two sliding windows."""
    order = history.projection_order
    windows = sliding_window_view(history.window(), group_size + order - 1)[::group_size]
    products = block_gains[:, None] * windows
    placed = sliding_window_view(products, order, axis=1).reshape(history.filter_length, order)
    return np.ascontiguousarray(placed)


def reference_solve(matrix, delta: float, rhs) -> np.ndarray:
    """``(matrix + delta*I) z = rhs`` through scipy's LU wrappers."""
    system = matrix + delta * np.eye(matrix.shape[0])
    lu, piv = lu_factor(system, check_finite=False)
    pivots = np.abs(lu.diagonal())
    if pivots.min() <= matrix.shape[0] * np.finfo(float).eps * pivots.max():
        raise np.linalg.LinAlgError("singular projection system")
    return lu_solve((lu, piv), rhs, check_finite=False)


def reference_block_gains(config, weights) -> np.ndarray:
    """Per-block gains: floored block norms normalized by their mean."""
    if config.variant == "apa":
        return np.ones(1)
    if config.variant in _PER_TAP:
        norms = np.abs(weights)
    else:
        blocks = weights.reshape(config.block_count, config.group_size)
        norms = np.sqrt(np.sum(blocks * blocks, axis=1))
    floor = config.guards.rho * max(config.guards.q, float(norms.max()))
    gamma = np.maximum(floor, norms)
    return gamma / gamma.mean()


def lag_group(config):
    """The group size P whose lag vectors a recursive step reads for ``config``'s
    Gram matrix, or None where it forms the matrix from products over X(n)."""
    L, M, P, N = config.filter_length, config.projection_order, config.group_size, config.block_count
    if config.variant in _SCALAR:
        return None
    if N == 1 and config.variant not in _MEMORY:
        return min((d for d in range(1, L + 1) if L % d == 0), key=lambda d: abs(d - L**0.5))
    return P if min(P, M) >= _SUMMED_FROM else None


class ReferenceState:
    """Weights plus a plainly shifted L-by-M memory matrix, and the recursions'
    last Gram matrix, a-posteriori errors, fictitious-weight sums E, lag vectors
    r(n - t) and block gains g(n - t), newest first, all zero at the start."""

    def __init__(self, config):
        L, M = config.filter_length, config.projection_order
        self.config = config
        self.weights = np.zeros(L)
        self.memory = np.zeros((L, M))
        self.gram, self.eps, self.fictitious = np.zeros((M, M)), np.zeros(M), np.zeros(M)
        self.lags = [np.zeros(M)] * (L - (lag_group(config) or config.group_size) + M)
        self.gains = [np.zeros(config.block_count)] * M

    def formed(self, history) -> np.ndarray:
        """The weights w(n): ``weights + mu * X[:, :M-1] @ E[:M-1]`` (E stays zero unless a
        recursive unit-gain step moved it), the product over a sliding window of the input."""
        M, L = self.config.projection_order, self.config.filter_length
        older = sliding_window_view(history.window(), L)[: M - 1]  # row j is x(n - j)
        return self.weights + self.config.step_size * (self.fictitious[:-1] @ older)


def reference_filter_step(config, state, history, desired, build="efficient", recursive=False) -> None:
    """One step of ``filter_step`` built from the reference pieces above.

    ``state`` is a :class:`ReferenceState`.  The operands of the matrix
    products are laid out as BLAS takes them, as in production: the
    regressor as a C-contiguous ``(M, L)`` copy, the memory matrix as a
    column-major copy of the shifted one and the efficient build as a
    C-contiguous copy.  With ``build="direct"`` the projection members
    without memory also scale every regressor entry and require that
    matrix to equal the placed products exactly.  With ``recursive`` the
    projection members take the recursions of the module notes.
    """
    weights = state.weights
    block = reference_block_gains(config, weights)
    per_tap = np.repeat(block, config.group_size)
    mu, delta = config.step_size, config.regularization
    x = history.window()[: config.filter_length]
    if config.variant in _SCALAR:
        err = desired[0] - float(x @ weights)
        weighted = per_tap * x
        weights += (mu * err / (float(x @ weighted) + delta)) * weighted
        return
    regressor_t = np.ascontiguousarray(reference_regressor_matrix(history).T)
    M, P, N = config.projection_order, config.group_size, config.block_count
    lagged = recursive and lag_group(config)
    summed = lagged and config.variant not in _MEMORY and N > 1
    fictitious = recursive and N == 1 and config.variant not in _MEMORY
    if lagged:  # r(n) = x(n)[:P] @ X(n)[:P] for the row's lag group P
        regressor = np.ascontiguousarray(reference_regressor_matrix(history))
        state.lags = [x[:lagged] @ regressor[:lagged]] + state.lags[:-1]
        state.gains = [block] + state.gains[:-1]
    if config.variant in _MEMORY:
        mem = state.memory
        mem[:, 1:] = mem[:, :-1]
        mem[:, 0] = per_tap * x
        weighted = np.asfortranarray(mem)
    elif not summed:  # a summed row builds no weighted regressor: its update is g * (X z)
        weighted = reference_efficient_build(block, config.group_size, history)
        if build == "direct":
            direct = per_tap[:, None] * reference_regressor_matrix(history)
            if not np.array_equal(direct, weighted):
                raise AssertionError("direct and efficient weighted regressors differ")
    if summed:  # G = sum_k g_k R_k, with R_k(n)[a, a + j] = r(n - a - kP)[j]
        sums = [block @ np.stack([state.lags[a + k * P] for k in range(N)]) for a in range(M)]
        gram = np.empty((M, M))
        for a in range(M):
            for b in range(a, M):
                gram[a, b] = gram[b, a] = sums[a][b - a]
    elif recursive and (config.variant in _MEMORY or N == 1):
        gram = np.zeros_like(state.gram)
        gram[1:, 1:] = state.gram[:-1, :-1]
        if lagged:  # column 0 = sum_k g_k(n) r(n - kP), row 0 = sum_k g_k(n - j) r(n - kP)[j]
            lags = np.stack([state.lags[k * lagged] for k in range(config.filter_length // lagged)])
            if config.variant in _MEMORY:
                gram[:, 0] = block @ lags
                gram[0, :] = np.multiply(np.stack(state.gains), lags.T, out=np.empty((M, len(lags)))).sum(axis=1)
            else:
                gram[:, 0] = gram[0, :] = np.ones(len(lags)) @ lags
        else:
            gram[:, 0] = regressor_t @ weighted[:, 0]
            gram[0, :] = np.ascontiguousarray(weighted.T) @ x
    else:
        gram = regressor_t @ weighted
    if recursive:
        prior = desired[0] - float(x @ weights)
        if fictitious:  # x(n) @ w(n-1) = x(n) @ w-hat + mu * G(n)[0, 1:] @ E[:M-1]
            prior -= mu * float(np.dot(gram[0, 1:], state.fictitious[:-1]))
        err = np.concatenate(([prior], state.eps[:-1]))
    else:
        err = desired - regressor_t @ weights
    state.gram, state.eps = gram, err  # a failed solve leaves the weights, so err stands
    try:
        z = reference_solve(gram, delta, err)
    except np.linalg.LinAlgError:
        if fictitious:  # z = 0: w-hat moves so that w stays
            _fictitious_step(config, state, history, np.zeros(M))
        raise
    if fictitious:
        _fictitious_step(config, state, history, z)
    else:
        weights += mu * (per_tap * (regressor @ z) if summed else weighted @ z)
    state.eps = (1 - mu) * err + mu * delta * z


def _fictitious_step(config, state, history, z) -> None:
    """``E = [0, E[:M-1]] + z``, then ``w-hat += (mu * E[M-1]) * x(n - M + 1)``."""
    M, L = config.projection_order, config.filter_length
    state.fictitious = np.concatenate(([0.0], state.fictitious[:-1])) + z
    state.weights += (config.step_size * state.fictitious[-1]) * history.window()[M - 1 : M - 1 + L]


class DenseReference:
    """The paper's update equations with explicit matrices.

    Every step forms the per-tap gain diagonal ``G = diag(g)`` from the
    current weights, the regressor ``X = [x(n), ..., x(n-M+1)]`` from the
    raw input, and then

    * ``P = G X`` (no memory), or ``P = [G x(n), P_prev[:, :M-1]]`` (memory);
    * ``h += mu * P (X^T P + delta I)^-1 (d - X^T h)``;
    * for the single-projection members,
      ``h += mu * e G x / (x^T G x + delta)``.
    """

    def __init__(self, config):
        self.config = config
        L, M = config.filter_length, config.projection_order
        self.weights = np.zeros(L)
        self.memory = np.zeros((L, M))
        self.inputs: list[float] = []
        self.desired: list[float] = []

    def gain_diagonal(self) -> np.ndarray:
        cfg = self.config
        L = cfg.filter_length
        if cfg.variant == "apa":
            return np.eye(L)
        size = 1 if cfg.variant in _PER_TAP else cfg.group_size
        norms = np.array(
            [np.linalg.norm(self.weights[k : k + size]) for k in range(0, L, size)]
        )
        gamma = np.maximum(cfg.guards.rho * max(cfg.guards.q, norms.max()), norms)
        per_block = gamma * (norms.size / gamma.sum())
        return np.diag(np.repeat(per_block, size))

    def regressor(self) -> np.ndarray:
        L, M = self.config.filter_length, self.config.projection_order
        n = len(self.inputs) - 1
        X = np.zeros((L, M))
        for j in range(M):
            for i in range(L):
                if n - j - i >= 0:
                    X[i, j] = self.inputs[n - j - i]
        return X

    def process(self, sample: float, desired: float) -> None:
        cfg = self.config
        M = cfg.projection_order
        self.inputs.append(float(sample))
        self.desired.append(float(desired))
        d = np.array([self.desired[-1 - j] if j < len(self.desired) else 0.0 for j in range(M)])
        G = self.gain_diagonal()
        X = self.regressor()
        h = self.weights
        e = d - X.T @ h
        mu, delta = cfg.step_size, cfg.regularization
        if cfg.variant in _SCALAR:
            x = X[:, 0]
            self.weights = h + mu * e[0] * (G @ x) / (x @ G @ x + delta)
            return
        if cfg.variant in _MEMORY:
            P = np.column_stack([G @ X[:, 0], self.memory[:, : M - 1]])
            self.memory = P
        else:
            P = G @ X
        self.weights = h + mu * P @ np.linalg.solve(X.T @ P + delta * np.eye(M), e)


def dense_gap(production, classical, x, d) -> tuple[float, np.ndarray]:
    """Largest weight gap over a trajectory, and the dense reference's final weights.

    ``production`` drives :class:`AdaptiveFilter` and ``classical`` drives
    :class:`DenseReference`, both over the samples ``(x[n], d[n])``.
    """
    filt, dense = AdaptiveFilter(production), DenseReference(classical)
    gap = 0.0
    for n in range(len(x)):
        filt.process(x[n], d[n])
        dense.process(x[n], d[n])
        gap = max(gap, float(np.max(np.abs(filt.weights - dense.weights))))
    return gap, dense.weights


def reduction_gaps(
    num_steps: int = 1000,
    filter_length: int = 64,
    projection_order: int = 4,
    group_size: int = 8,
    seed: int = 1337,
) -> dict[str, float]:
    """Largest weight gap between each special case and its classical update.

    Production ``bs-papa``/``bs-mpapa`` with (M, P) pinned runs against
    :class:`DenseReference` built for the classical member it reduces to,
    on one seeded white-noise identification stream.  Returns
    ``max_n max |w_prod(n) - w_classical(n)|`` keyed by the classical
    member's name.
    """
    L, M, P = filter_length, projection_order, group_size
    quarter = L // 4
    target = make_block_sparse_ir(
        L, [(quarter + 1, quarter + 2), (3 * quarter + 1, 3 * quarter + 2)], seed=_substream_seed(seed, 0)
    )
    x = gen_excitation(num_steps, _substream_seed(seed, 1), "white")
    d = lfilter(target.taps, [1.0], x)

    def cfg(variant, order, group=None):
        return FilterConfig(
            variant,
            filter_length=L,
            projection_order=order,
            group_size=group,
            step_size=0.5,
            regularization=0.01,
        )

    pairs = {
        "papa": (cfg("bs-papa", M, 1), cfg("papa", M)),
        "apa": (cfg("bs-papa", M, L), cfg("apa", M)),
        "bs-pnlms": (cfg("bs-papa", 1, P), cfg("bs-pnlms", 1, P)),
        "pnlms": (cfg("bs-papa", 1, 1), cfg("pnlms", 1)),
        "mpapa": (cfg("bs-mpapa", M, 1), cfg("mpapa", M)),
    }
    return {
        name: dense_gap(production, classical, x, d)[0]
        for name, (production, classical) in pairs.items()
    }

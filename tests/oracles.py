"""Reference implementations the production step is checked against.

Two kinds live here, both independent of the production hot path:

* ``reference_*``: the previous constructions of the step's pieces, built
  with ``sliding_window_view`` and scipy's ``lu_factor``/``lu_solve``, plus a
  ``reference_filter_step`` composed of them.  The production path performs
  the same floating-point operations, so it must agree with these bit for
  bit.
* ``DenseReference``: one adaptation step written straight from the update
  equations (Paleologu, Ciochina & Benesty, "An efficient proportionate
  affine projection algorithm for echo cancellation", IEEE SPL 2010), with
  an explicit diagonal gain matrix ``G``, an explicit regressor ``X`` and a
  dense solve.  It agrees with production to rounding.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lu_factor, lu_solve

_PER_TAP = ("papa", "mpapa", "pnlms")
_MEMORY = ("mpapa", "bs-mpapa")
_SCALAR = ("pnlms", "bs-pnlms")


def reference_regressor_matrix(history) -> np.ndarray:
    """L-by-M regressor through a sliding window over the history."""
    stacked = sliding_window_view(history.window(), history.filter_length)
    return stacked[: history.projection_order].T


def reference_efficient_build(block_gains, group_size: int, history) -> np.ndarray:
    """Efficient weighted regressor placed through two sliding windows."""
    order = history.projection_order
    windows = sliding_window_view(history.window(), group_size + order - 1)[::group_size]
    products = block_gains[:, None] * windows
    return sliding_window_view(products, order, axis=1).reshape(history.filter_length, order)


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


def reference_filter_step(config, state, history, desired, build="efficient") -> None:
    """One step of ``filter_step`` built from the reference pieces above.

    With ``build="direct"`` the projection members without memory also
    scale every regressor entry and require that matrix to equal the
    placed products exactly.  The step goes on with the placed products
    either way: they can be an overlapping strided view (one block, M > 1),
    and matmul's summation order depends on the operand layout.
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
    regressor_t = reference_regressor_matrix(history).T
    err = desired - regressor_t @ weights
    if config.variant in _MEMORY:
        mem = state.memory_regressor
        mem[:, 1:] = mem[:, :-1]
        mem[:, 0] = per_tap * x
        weighted = mem
    else:
        weighted = reference_efficient_build(block, config.group_size, history)
        if build == "direct":
            direct = per_tap[:, None] * reference_regressor_matrix(history)
            if not np.array_equal(direct, weighted):
                raise AssertionError("direct and efficient weighted regressors differ")
    gram = regressor_t @ weighted
    weights += mu * (weighted @ reference_solve(gram, delta, err))


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

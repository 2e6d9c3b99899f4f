"""The step kernel: the per-sample update of every projection filter, batched.

One kernel, ``_Batch``, takes the step for B filters that share the filter
length, the projection order and the branch, over one input history: the
error, Gram and update products are stacked over the filters, with one
pivot test per step.  A single-projection batch is only its rows, ``_ScalarRow``
steps that read x(n) and d(n) themselves.  ``filter_step`` and ``AdaptiveFilter``
run the batch of one a ``FilterState`` keeps, a lone ``_ScalarRow`` for
``pnlms``/``bs-pnlms``; ``_panel_batches`` builds the zeroed batches of a panel,
which ``run_experiment`` streams.

From ``_RECURSE_FROM`` on, a panel's batch takes the fast affine projection
recursions: of its M errors only e(n)[0] is a product, and the Gram matrix of
a unit-gain or memory row is last step's, shifted, with a new row 0 and column 0.
A gained row with P and M from ``_SUM_FROM`` on builds no W there: its Gram
matrix X.T G X = sum_k g_k R_k reads every block correlation R_k from a ring of
lag vectors, and its update is g * (X(n) z).  The same ring, one per group
size, gives a unit-gain row, and a memory row of such P, its new row and
column 0 as sums of N lag vectors.  What reads only the input is formed a
block ahead: the lag vectors, and a unit-gain row's whole Gram matrix, factored
(``_Batch._fill``), ``_BLOCK`` samples at a time from the stream that
``run_experiment`` synthesized, else one sample ahead from the history.

A single block has gain exactly one, so its W is X(n) itself, which the history
serves as a C-contiguous view (``RegressorHistory._first_rows``).  Every
other row that builds W weights that view in place: M*L products, each block
gain copied over its rows, then one multiply.  That gives the bits of the
paper's (P+M-1)*N-product build, :func:`~bspapa.filters.build_weighted_regressor_efficient`.
Every row computes its gains in buffers made once per batch, through the same
gain rule as :func:`~bspapa.filters.variant_gains`.

This module holds no public name; :mod:`bspapa.filters` is its public face.
It imports from there, so a ``FilterState`` imports it where it builds its
batch.  It is a module of its own also because the interpreter compiles each
source file at import: one file of both would take more time and memory to
compile (see the README).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .filters import FilterConfig, RegressorHistory, SingularSystemError
from .filters import _EPS, _block_gains, _mirrored, _ring_shape, _solve_stack, dgetrf, dgetrs
from .signals import _decibels, _misalignment_rows, _power, _squared_errors

# A recursive batch sums a gained row's block correlations from a lag ring,
# rather than weighting X(n), where both P and M reach this (see _lag_group):
# the cut from which the paper's build beat in-place weighting, and below
# which a memory row's sums are slower than its gemvs (see the README).
_SUM_FROM = 16
# A panel's batch forms its errors and its unit-gain and memory rows' Gram
# matrices recursively from this projection order on: only there is it faster.
_RECURSE_FROM = 16
# A recursive batch forms the work that reads only the input (lag vectors, and its unit-gain
# rows' Gram matrices, factored) this many samples ahead when it has the stream (see _Batch._fill).
_BLOCK = 64
# A unit-gain row's streamed misalignment is formed exactly from its weights whenever its
# running value falls below this share of its last exact value, and on every sample below
# this share of ||h||^2 (-100 dB), where the recursion's relative accuracy nears 1e-9 dB
# (see the README).
_EXACT_DROP = 1e-2
_EXACT_BELOW = 1e-10


def _weigh(gains: np.ndarray, x: np.ndarray, out: np.ndarray, blocks) -> None:
    """``out = gains * x``, in place; no checks.  ``blocks`` is ``out`` as one row per
    block, whose gain is copied over it first (a broadcast would buffer), or None."""
    if blocks is not None:
        np.copyto(blocks, gains[:, None])
        gains = out
    np.multiply(gains, x, out=out)


def _blocks(row: np.ndarray, config: FilterConfig):
    """``row``, of L floats, as one row per block for :func:`_weigh`; None for one-tap blocks."""
    return None if config.group_size == 1 else row.reshape(config.block_count, -1)


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
    update, after a recursive batch's block fill (below).  The weights are the
    rows of one ``(B, L)`` block, in four runs: built rows, summed rows,
    unit-gain rows, memory rows (those that keep their products first, then
    those that sum); ``_panel_batches`` orders them so.  The one gain pass
    fills each other row's own gain buffers, in the order the build reads the
    rows (built, memory, then summed), and the build only weights.  Built rows
    weight their regressor into a C-contiguous ``(Bb, L, M)`` stack: they copy
    their block gains over their slot and multiply it by X(n), the history's
    :meth:`~RegressorHistory._first_rows` view, in place.  A unit-gain
    row (one block, of gain exactly one) uses that view itself, one row at a
    time: its X(n) z is an ``(L, M) @ (M,)`` product.  Memory rings
    are stacked as ``(Bm, 2M, L)`` under one head, whose row is weighted by
    x(n) the same way.  Each stacked product equals the per-filter product bit
    for bit.  The history's copies of its input are made as the batch reads
    them: a batch with a built or summed row, or a unit-gain row that is not
    recursive, reads all of X(n) from the row view; other batches read none
    (the block fill forms its lag vectors from rows of its own).  Only a
    full-product error or Gram, that of a batch that is not recursive, of its
    built rows, or of a memory row's gemvs, reads X(n).T whole and makes the
    history's M-fold ring.  A step allocates no array of L floats.  A
    single-projection batch is its :class:`_ScalarRow` steps.  No checks.

    A ``recursive`` batch keeps, per row, the a-posteriori errors
    ε = (1 - mu)e + mu*delta*z of its last step (e for a row whose system
    failed) and its Gram matrices, both zero at the start.  Its error layer
    forms only e(n)[0] = d(n) - x(n).T w, as one dot product a row, and takes
    e(n)[1:] = ε(n-1)[:M-1]; it keeps e(n) beside the z its solve writes
    (``_solved`` holds [z; e(n)] a row).  Its memory rows' Gram matrix is
    G(n-1)[:-1, :-1] shifted down the diagonal, with column 0, X(n).T W[:, 0],
    and then row 0, x(n).T W, formed anew.  A unit-gain row's would be the
    same with both equal to c(n) = X(n).T x(n), so its whole matrix reads the
    input alone, G(m)[a, b] = c(m - min(a, b))[|a - b|], and the block fill
    forms and factors it (below).  Built rows form the full product.
    :meth:`without` carries the state of the rows it keeps, the block formed
    ahead included.

    A recursive batch's unit-gain rows (``units``, a run of rows) hold
    fictitious weights (Gay & Tavathia): the weights row is ŵ, and the row
    keeps E, M floats, zero at the start, with w(n) = ŵ(n) + mu * X̄(n) Ē(n),
    X̄ the first M - 1 columns of X and Ē = E[:M-1] (:meth:`formed`).  Its
    update is E(n) = [0; Ē(n-1)] + z(n), z = 0 for a failed row, then
    ŵ += (mu * E(n)[M-1]) * x(n-M+1), one multiply-add of L floats from the
    history's single input ring, where w would take an (L, M) @ (M,)
    product.  Its error is e(n)[0] = d(n) - x(n).T ŵ(n-1) - mu *
    c(n)[1:] Ē(n-1), with c(n) = G(n)[0] from the block fill.
    The batch also forms the stream's misalignment, so only it reads the
    fictitious weights: :meth:`segment` starts a segment, and
    :meth:`misalignment` gives every row's value after a step, a unit-gain
    row's by a scalar recursion.

    Row i of X(n) is row i - 1 of X(n-1), so block k's correlation is
    R_k(n)[a, a + j] = r_P(n - a - kP)[j], where r_P(m)[j] = sum_{i<P} x(m - i)
    x(m - i - j) is block 0's row 0 at time m.  A recursive batch keeps one
    ring of lag vectors r_P per group size P its rows read, zero at the start
    and mirrored, of ``_slots`` slots: whole blocks of ``_BLOCK``, at least
    L + M - 1 + K.  It steps once per push from the stream's start, and keeps
    the count (``_next``): sample m sits in slot (-1 - m) mod ``_slots``, so
    r_P(m - t) is t slots on.

    The block fill (:meth:`_fill`, :meth:`_form`) forms what reads only the
    input ahead of the steps that read it.  Given the stream (:meth:`segment`),
    whenever a step reaches the first sample not yet formed, it forms the
    samples up to the next multiple of ``_BLOCK`` (K = 64), one stacked call an
    item, from newest-first samples and K + P - 1 rows of M of them copied once:
    every group's r_P(m) = x(m)[:P] @ X(m)[:P], the gemv a step would take, so
    the bits are the same; the unit-gain column c(m) = sum_k r_P(m - kP); and
    each unit-gain row's G(m) + delta*I, from a strided view of the last
    K + M - 1 columns, factored by ``dgetrf`` item by item, with the pivot
    test of :func:`~bspapa.filters._solve_stack` over the block and each failure kept under its
    own sample.  A step then solves its unit-gain rows by ``dgetrs`` alone.  A
    block never crosses a multiple of K, so its slots are one run and the ring
    is never moved.  Without the stream, or past its end, the same code forms
    one sample ahead from the history's window.  Its state is K*M*M floats of
    factors a unit-gain row, and about (2K + P)*M floats of rows, columns and
    ring slots beyond the span (0.18 MiB in all for APA at L=4096, M=16).

    Gained rows with P and M from ``_SUM_FROM`` on are summed rows, with no W:
    C[a, j] = sum_k g_k r_P(n - a - kP)[j] is one stacked ``(N,) @ (M, N, M)``
    product over a strided view of the ring, G[a, b] = C[min(a, b), |a - b|] is
    exactly symmetric, and the update is g * (X(n) z), the gains applied as the
    build does.  A unit-gain row's column 0 is sum_k r_P(n - kP); a
    memory row's is sum_k g_k(n) r_P(n - kP), row 0 of its C, and its row 0
    sum_k g_k(n - j) r_P(n - kP)[j], from a mirrored ring of its last M block
    gains; both read w, so they stay in the step.  The rule
    (:func:`_lag_group`): a unit-gain row always sums, and a gained row, memory
    or not, from ``_SUM_FROM`` on; below that, a memory row's row 0 sum, an
    elementwise (M, N) pass, is slower than its gemv, so ``mpapa`` keeps its two.
    Build + Gram products a step: summed 0 + (P*M + N*M^2), unit-gain
    0 + (P*M + N*M), memory L + (P*M + 2*N*M).
    Every entry is a fresh P-term sum, so nothing drifts.
    """

    def __init__(self, configs, weights: np.ndarray, rings: np.ndarray, recursive=False):
        self.configs, self.weights, self.rings, self.head = configs, weights, rings, 0
        self._stream = self._input = None  # the misalignment stream and the input (see segment)
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
        # Every row but the unit-gain ones factors its system each step: an LU stack of those rows,
        # as (gram, ridge, LU) runs, the unit-gain rows' run left out.
        gram, lu = np.zeros((count, order, order)), np.empty((count - hi + lo, order, order))
        self._columns, self._errors, self._updates = weights[:, :, None], error, update[:, :, 0]
        self._grams, self._lu = gram, lu.transpose(0, 2, 1)
        self._ridged = [(gram[a:b], self._ridge[a:b], self._lu[a - at : b - at])
                        for a, b, at in ((0, lo, 0), (hi, count, hi - lo)) if a < b]
        self._diagonal = lu.reshape(len(lu), order * order)[:, :: order + 1]
        self._rhs = error[:, :, 0]
        if recursive:  # the views the error layer reads and writes every step
            self._carried = (self._rhs[:, 1:], self._eps[:, :-1])  # e(n)[1:] = ε(n-1)[:M-1]
            self._heads = (self._errors[:, :1], self._rhs[:, 0])  # x(n).T w, then e(n)[0]
        self._systems = list(zip(self._lu, [*error[:lo], *error[hi:]]))  # F-contiguous LU, (M, 1) rhs
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
        # the rows of X(n) the build reads: all of them where it multiplies by X(n), else none
        self._row_count = length if self._row_parts or self._in_place else 0
        # The fictitious weights' E, and (row, mu, E, update row) a row
        self._fictitious = np.zeros((hi - lo, order))
        self._unit_rows = [(b, configs[b].step_size, f, self._updates[b])
                           for b, f in zip(range(lo, hi), self._fictitious)]
        flat = self._fictitious.reshape(-1)  # its shift, as the Gram stack's: backwards, unbuffered
        self._unit_update = ((flat[1:], flat[:-1]), self._fictitious[:, 0], self._rhs[lo:hi])
        # the update stack's runs that take mu * W z, each as (updates, mu): all rows but the units
        self._scaled = [(self._updates[a:b], self.mu[a:b]) for a, b in ((0, lo), (hi, count)) if a < b]
        self._ring_stacks = (gram[p:], error[p:], update[p:])
        # One lag ring per group size P the rows read (see above), of ``_slots`` slots mirrored, with
        # a view by slot that reads r(m - a - kP)[j] at [a, k, j] for the sample m in that slot.
        span = length + order - 1
        self._lag_groups = sorted({g for g in groups if g is not None})
        self._slots = -(-(span + _BLOCK) // _BLOCK) * _BLOCK  # whole blocks, at least span + K
        self._lags = np.zeros((len(self._lag_groups), 2 * self._slots, order))
        row, tap = self._lags.strides[1:]
        views = {group: as_strided(lags, (self._slots, order, length // group, order),
                                   (row, row, group * row, tap), writeable=False)
                 for group, lags in zip(self._lag_groups, self._lags)}
        # The block fill's state (see _fill): the next sample to step, the first one not yet formed,
        # this step's slot and item, and buffers of newest-first samples and rows for a block.
        self._next = self._formed = self._slot = self._item = 0
        largest = max(self._lag_groups, default=1)
        self._recent = np.zeros(_BLOCK + largest + order - 2) if self._lag_groups else None
        self._block_rows = np.empty((_BLOCK + largest - 1, order)) if self._lag_groups else None
        self._sums = np.empty((len(summed), order, order))  # C[a, j] = sum_k g_k r(n - a - kP)[j]
        a, b = np.indices((order, order))
        self._mirror = np.minimum(a, b) * order + abs(a - b)  # G[a, b] = C[min(a, b), |a - b|]
        # the mirror copy's bound operands: C flat a row, and the summed rows' Gram stack
        self._flat_sums = self._sums.reshape(len(summed), order * order)
        self._summed_grams = gram[built:gained]
        # (P, gains, correlation views, update row, its (N, P) blocks, X(n)z)
        self._summed = [
            (c.group_size, g, views[c.group_size], u, _blocks(u, c), product)
            for (c, _, u), (_, _, g, _), product in zip(
                summed, self._gained[len(self._gained) - len(summed):], products)]
        # The unit-gain rows' block state: their column c(m) = sum_k r(m - kP) newest first, the
        # block's and the M - 1 before it, with (ones, views); each row's G(m) + delta I, factored,
        # with the pivots and F-contiguous views a step solves with; {sample: {row: failure}}.
        unit = groups[lo] if hi > lo else None
        self._unit_sum = unit and (np.ones(length // unit), views[unit])
        self._unit_columns = np.zeros((_BLOCK + order - 1, order)) if unit else None
        self._c = self._unit_failed = None  # c(n), every unit-gain row's G(n)[0], and its failures
        self._lower = a > b
        blocks = np.empty((hi - lo, _BLOCK, order, order))
        self._unit_lu = [(block, [item.T for item in block], [None] * _BLOCK, error[b])
                         for b, block in zip(range(lo, hi), blocks)]
        self._singular = {}
        self._memory_sums = [(gram[b], gains, views[groups[b]], np.empty((order, length // groups[b])))
                             for b, gains in zip(range(self.summing, count), self._gain_rings)]
        # The shift of the memory rows' Gram stack down its diagonal, as one copy along the flat
        # stack: its overlap runs backwards unbuffered, and what it writes to row and column 0 is
        # formed anew.
        flat = gram[p:].reshape(-1)
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
        batch._input = self._input
        if self.recursive:
            batch._grams[:], batch._eps[:] = self._grams[keep], self._eps[keep]
            batch._fictitious[:] = self._fictitious[units]
            batch._lags[:] = self._lags[[self._lag_groups.index(g) for g in batch._lag_groups]]
            for new, b in zip(batch._gain_rings, [b for b in keep if b >= self.summing]):
                new[:] = self._gain_rings[b - self.summing]
            # the block formed ahead: positions, the unit-gain column and each kept row's factors
            batch._next, batch._formed = self._next, self._formed
            if units:
                batch._unit_columns[:] = self._unit_columns
                for (block, _, pivots, _), i in zip(batch._unit_lu, units):
                    old = self._unit_lu[i]
                    block[:], pivots[:] = old[0], old[2]
                index = {b: i for i, b in enumerate(keep)}
                for sample, failed in self._singular.items():
                    kept = {index[b]: exc for b, exc in failed.items() if b in index}
                    if kept:
                        batch._singular[sample] = kept
        return batch

    def step(self, history: RegressorHistory, desired: np.ndarray):
        """Step every filter a sample, layer by layer; return the a-priori errors and ``{row: failure}``."""
        if self.scalar:  # one call a row; a failed row keeps its weights
            steps = [row(history, desired) for row in self._scalar_rows]
            return [prior for prior, _ in steps], {b: failed for b, (_, failed) in enumerate(steps) if failed}
        if self._lag_groups:
            self._fill(history)
        gains = self._gains()
        parts = self._build(history, gains)
        self._gram(history, parts)
        prior = self._error(history, desired)
        failed = self._solve()
        self._update(history, parts, failed)
        return prior, failed

    def _fill(self, history: RegressorHistory) -> None:
        """Place this step in the block formed ahead, first forming the next block if this
        sample is not in it: K samples up to the next multiple of ``_BLOCK`` from the stream
        :meth:`segment` gave, else one sample from the history's window."""
        n = self._next
        if n == self._formed:
            stream = self._input
            if stream is None or n >= stream.size:
                count, recent = 1, history._buf[history._head :]
            else:  # newest first: x(n + count - 1) down to the oldest sample the block reads
                count, recent = min(_BLOCK - n % _BLOCK, stream.size - n), self._recent
                top = n + count
                first = max(top - len(recent), 0)
                np.copyto(recent[: top - first], stream[first:top][::-1])
                recent[top - first :] = 0.0  # before the stream's start
            self._form(recent, n, count)
            self._formed = n + count
        self._next, self._slot, self._item = n + 1, (-1 - n) % self._slots, self._formed - 1 - n
        if self._unit_rows:
            self._c = self._unit_columns[self._item]
            self._unit_failed = self._singular.pop(n, None)

    def _form(self, recent: np.ndarray, n: int, count: int) -> None:
        """Form the input-only work of samples n .. n + count - 1, from ``recent``, the
        newest-first samples from x(n + count - 1) on, in one stacked call an item: each lag
        group's vectors r(m) = x(m)[:P] @ X(m)[:P], the unit-gain column c(m), and each unit-gain
        row's G(m) + delta*I, factored, with its failures kept under m.  The block never crosses
        a multiple of ``_BLOCK``, so its slots of the lag ring are one run."""
        order, step = self.configs[0].projection_order, recent.strides[0]
        rows = self._block_rows[: count + self._lag_groups[-1] - 1]  # row t: M samples from recent[t]
        np.copyto(rows, as_strided(recent, rows.shape, (step, step)))
        first, stride = (-n - count) % self._slots, rows.strides[0]  # the newest sample's slot
        for group, lags in zip(self._lag_groups, self._lags):
            out = lags[first : first + count]
            np.matmul(as_strided(recent, (count, 1, group), (step, 0, step)),
                      as_strided(rows, (count, group, order), (stride, stride, step)), out=out[:, None])
            lags[self._slots + first : self._slots + first + count] = out
        if not self._unit_rows:
            return
        columns, (ones, views) = self._unit_columns, self._unit_sum
        np.copyto(columns[count : count + order - 1], columns[: order - 1])  # the M - 1 before
        np.matmul(ones, views[first : first + count, 0], out=columns[:count])
        # G(m)[a, b] = c(m - min(a, b))[|a - b|]: entry (t, a, b) reads c(m - a)[b - a] at and above
        # the diagonal, and the transposed view below it
        row = columns.strides[0]
        upper = as_strided(columns, (count, order, order), (row, row - step, step), writeable=False)
        scale, top = order * _EPS, n + count - 1
        for (block, items, pivots, _), b in zip(self._unit_lu, range(*self.units)):
            lu = block[:count]  # copied, then the ridge added: an add reading the views would copy them
            np.copyto(lu, upper)
            np.copyto(lu, upper.transpose(0, 2, 1), where=self._lower)
            np.add(lu, self._ridge[b], out=lu)
            for t in range(count):
                _, pivots[t], info = dgetrf(items[t], 1)  # overwrite_a, positional: keywords cost more
                if info < 0:
                    raise ValueError(f"dgetrf rejected argument {-info}")
            # the pivot test of _solve_stack, item by item
            magnitudes = np.abs(lu.reshape(count, -1)[:, :: order + 1])
            smallest = np.minimum.reduce(magnitudes, 1)
            for t in np.flatnonzero(smallest <= scale * np.maximum.reduce(magnitudes, 1)).tolist():
                pivot = float(smallest[t])
                self._singular.setdefault(top - t, {})[b] = SingularSystemError(
                    f"projection system singular to working precision (pivot {pivot:.3e})", pivot=pivot)

    def _gains(self) -> list:
        """Every gained row's block gains, in buffers of its own, in the order the build reads them."""
        return [_block_gains(config, w, gains, squares) for config, w, gains, squares in self._gained]

    def _error(self, history: RegressorHistory, desired: np.ndarray) -> list:
        """The a-priori errors ``d - X.T w``, into the solve's right-hand sides; return each row's
        e(n)[0].  A recursive batch forms e(n)[0] alone, a unit-gain row's from ŵ and c(n), this
        step's Gram row 0, and keeps e(n) as ``_prior``."""
        rhs = self._rhs
        if not self.recursive:
            np.matmul(history._transposed(), self._columns, out=self._errors)
            np.subtract(desired, rhs, out=rhs)
            return rhs[:, 0].tolist()
        np.copyto(*self._carried)
        products, first = self._heads
        np.matmul(history._x0[history._head], self._columns, out=products)  # one dot product a row
        np.subtract(desired[0], first, out=first)
        if self._unit_rows:  # x(n).T w(n-1) = x(n).T ŵ + mu G(n)[0, 1:] Ē(n-1)
            row = self._c[1:]
            for b, mu, fictitious, _ in self._unit_rows:
                rhs[b, 0] -= mu * float(np.dot(row, fictitious[:-1]))
        np.copyto(self._prior, rhs)
        return first.tolist()

    def _build(self, history: RegressorHistory, gains: list) -> list:
        """Weight the gained rows' regressors by ``gains`` and push the memory and gain rings;
        return the (W, Gram, error, update) stacks and rows."""
        gains, parts = iter(gains), self._parts
        if self._row_count:
            regressor = history._first_rows(self._row_count)
            for (_, out, blocks), g in zip(self._in_place, gains):
                _weigh(g, regressor, out, blocks)
            parts = parts + [(regressor, *row) for row in self._row_parts]
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
        shifts its memory rows' and forms their row and column 0 alone.  A unit-gain row of a
        recursive batch has its matrix formed and factored ahead (:meth:`_form`)."""
        products = parts[: len(self._parts)] if self.recursive else parts
        if products or self.summing > self.plain:  # only these multiply by X(n).T whole
            xt = history._transposed()
        for weighted, gram, _, _ in products:
            np.matmul(xt, weighted, out=gram)
        lag = self._slot
        if self._summed:  # C = g @ the correlation view, mirrored onto G
            for (_, gains, views, *_), sums in zip(self._summed, self._sums):
                np.matmul(gains, views[lag], out=sums)
            # "clip": under the default "raise" numpy would buffer the output
            self._flat_sums.take(self._mirror, 1, self._summed_grams, "clip")
        if self.plain == len(self.configs) or not self.recursive:
            return
        head, order = self.head, history.projection_order
        np.copyto(*self._shift)
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
        """Solve ``(Gram + delta*I) z = e`` in place of the errors; return ``{row: failure}``.
        A recursive batch's unit-gain rows solve with the factors formed ahead."""
        failed = {}
        if self._systems:
            for gram, ridge, lu in self._ridged:
                np.add(gram, ridge, out=lu)
            failed = _solve_stack(self._systems, self._diagonal)
        if not self._unit_rows:
            return failed
        lo, hi = self.units
        if failed:  # the stack skips the unit-gain rows
            failed = {b if b < lo else b + hi - lo: exc for b, exc in failed.items()}
        item, singular = self._item, self._unit_failed
        for (_, items, pivots, rhs), b in zip(self._unit_lu, range(lo, hi)):
            if singular is None or b not in singular:
                if dgetrs(items[item], pivots[item], rhs, 0, 1)[1] < 0:  # trans, overwrite_b
                    raise ValueError("dgetrs rejected an argument")
        if singular:
            failed = dict(sorted({**failed, **singular}.items()))
        return failed

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
            for _, mu, fictitious, update in self._unit_rows:
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
            for b, mu, fictitious, _ in self._unit_rows:  # a row at a time: a stack would take BLAS
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
        self._stream, self._input = (truth, _power(truth), start, end, clean, np.empty(self.weights.shape)), x
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
            for i, (b, mu, _, _) in enumerate(self._unit_rows):
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

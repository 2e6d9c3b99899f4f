"""Traced replay of adaptation steps, and the computed per-step cost model.

The replay runs each filter of a plan step by step the way ``filter_step``
does, through the package's public pieces (``RegressorHistory.push``,
``variant_gains``, the regressor builders, ``update_memory_regressor``,
``solve_regularized``) and the step's own expressions for the a-priori
error, the Gram matrix and the weight update, and times each part.  The
error is formed as ``filter_step`` forms it, sharing one regressor view
with the Gram product; ``error_vector`` would add its own validation and a
second view.  Beside the replay, a shadow state takes the same step through
``filter_step``, which is timed as a whole; the replayed weights must equal
the shadow's after every step.  ``filter_step`` time not covered by the
replayed parts is its self time (validation, dispatch, Python overhead).

The driving loop's own work around each step is replayed too: for a panel
entry, ``run_experiment``'s loop shifts the desired window and computes the
misalignment inline every sample; for a stream, ``AdaptiveFilter.process``
shifts the window and forms the a-priori error it returns.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import numpy as np

from workloads import STREAM_CHECK_EVERY, PanelPlan

from bspapa import (
    FilterState,
    RegressorHistory,
    SingularSystemError,
    build_weighted_regressor_direct,
    build_weighted_regressor_efficient,
    filter_step,
    misalignment_db,
    solve_regularized,
    synthesize_scenario,
    update_memory_regressor,
    variant_gains,
)

PARTS = ("gains", "error", "build", "gram", "solve", "update")


def step_costs(cfg) -> dict:
    """Computed (products, bytes) of one adaptation step, by part.

    Products count multiplications and divisions on vectors and matrices;
    bytes count float64 operands read once plus results written once.  Both
    follow from (L, M, P, variant) alone and ignore temporaries and caches.
    The single-projection members map their scalar normalization onto
    ``gram`` (x.T @ weighted) and ``solve`` (mu * e / denominator).
    """
    L, M, P, N = cfg.filter_length, cfg.projection_order, cfg.group_size, cfg.block_count
    if cfg.variant == "apa":
        gains = (0, 8)
    elif cfg.variant.startswith("bs-"):
        gains = (L + N, 8 * (L + N))
    else:
        gains = (L, 16 * L)
    if cfg.is_scalar:
        return {
            "gains": gains,
            "error": (L, 8 * (2 * L + 2)),
            "build": (L, 8 * (N + 2 * L)),
            "gram": (L, 8 * (2 * L + 1)),
            "solve": (2, 32),
            "update": (L, 24 * L),
        }
    if cfg.is_memory:
        build = (L, 8 * (N + 2 * M * L))
    elif cfg.regressor_mode == "direct":
        build = (M * L, 8 * (N + 2 * M * L))
    else:
        build = ((P + M - 1) * N, 8 * (L + M - 1 + N + M * L))
    lu = M * (M - 1) // 2 + (M - 1) * M * (2 * M - 1) // 6
    return {
        "gains": gains,
        "error": (M * L, 8 * (M * L + L + 2 * M)),
        "build": build,
        "gram": (M * M * L, 8 * (2 * M * L + M * M)),
        "solve": (lu + M * (M - 1) + M, 8 * (M * M + 2 * M)),
        "update": (M * L + L, 8 * (M * L + M + 2 * L)),
    }


class Replay:
    """Accumulated spans of replayed steps across filters and reps."""

    def __init__(self):
        self.part_seconds = defaultdict(float)  # part -> summed seconds
        self.push_seconds = 0.0
        self.loop_seconds = 0.0  # the driving loop's own work around each step
        self.misalignment_seconds = 0.0
        self.misalignment_calls = 0
        self.step_seconds = []  # one array of filter_step durations per filter run
        self.steps = 0
        self.solve_calls = 0
        self.singular = 0
        self.max_dw = 0.0
        self.wall = 0.0
        self.costs = []  # step_costs of each replayed filter run, weighted equally

    def run_plan(self, plan) -> None:
        """Replay every filter of ``plan`` over its whole stream."""
        t0 = time.perf_counter()
        if isinstance(plan, PanelPlan):
            for cfg in plan.experiments.values():
                x, d = synthesize_scenario(cfg.scenario)
                for _, fcfg in cfg.panel:
                    self._run_filter(fcfg, x, d, cfg.scenario.segments(), streaming=False)
        else:
            for _, fcfg in plan.filters:
                self._run_filter(fcfg, plan.x, plan.d, plan.scenario.segments(), streaming=True)
        self.wall += time.perf_counter() - t0

    def _run_filter(self, cfg, x, d, segments, streaming: bool) -> None:
        clock = time.perf_counter
        L, M = cfg.filter_length, cfg.projection_order
        every = STREAM_CHECK_EVERY if streaming else 1
        mu, delta = cfg.step_size, cfg.regularization
        history = RegressorHistory(L, M)
        desired = np.zeros(M)
        replayed, shadow = FilterState.initial(cfg), FilterState.initial(cfg)
        w = replayed.weights
        steps = np.empty(x.size)
        span = self.part_seconds
        done = 0
        self.costs.append(step_costs(cfg))
        try:
            for start, end, response in segments:
                truth = response.taps
                truth_power = float(truth @ truth)
                for n in range(start, end):
                    t0 = clock()
                    history.push(x[n])
                    t1 = clock()
                    self.push_seconds += t1 - t0
                    desired[1:] = desired[:-1]
                    desired[0] = d[n]
                    if streaming:  # AdaptiveFilter.process also forms the a-priori error
                        float(d[n] - history.input_vector() @ w)
                    t0 = clock()
                    self.loop_seconds += t0 - t1
                    gains = variant_gains(cfg, w)
                    t1 = clock()
                    span["gains"] += t1 - t0
                    if cfg.is_scalar:
                        xv = history.input_vector()
                        t0 = clock()
                        g = gains.expand()
                        t1 = clock()
                        span["gains"] += t1 - t0
                        err = desired[0] - float(xv @ w)
                        t2 = clock()
                        weighted = g * xv
                        t3 = clock()
                        denom = float(xv @ weighted) + delta
                        t4 = clock()
                        if denom == 0.0:
                            raise SingularSystemError("scalar normalization is zero", pivot=0.0)
                        scale = mu * err / denom
                        t5 = clock()
                        w += scale * weighted
                        t6 = clock()
                    else:
                        t1 = clock()
                        regressor_t = history.regressor_matrix().T
                        err = desired - regressor_t @ w
                        t2 = clock()
                        if cfg.is_memory:
                            weighted = update_memory_regressor(replayed, gains, history.input_vector())
                        elif cfg.regressor_mode == "direct":
                            weighted = build_weighted_regressor_direct(gains, history).matrix
                        else:
                            weighted = build_weighted_regressor_efficient(gains, history).matrix
                        t3 = clock()
                        gram = regressor_t @ weighted
                        t4 = clock()
                        correction = solve_regularized(gram, delta, err)
                        t5 = clock()
                        w += mu * (weighted @ correction)
                        t6 = clock()
                    self.solve_calls += 1
                    span["error"] += t2 - t1
                    span["build"] += t3 - t2
                    span["gram"] += t4 - t3
                    span["solve"] += t5 - t4
                    span["update"] += t6 - t5
                    t0 = clock()
                    filter_step(cfg, shadow, history, desired)
                    steps[done] = clock() - t0
                    done += 1
                    self.max_dw = max(self.max_dw, float(np.max(np.abs(w - shadow.weights))))
                    if not streaming:  # bench's loop records misalignment inline every sample
                        t0 = clock()
                        diff = w - truth
                        ratio = float(diff @ diff) / truth_power
                        10.0 * math.log10(ratio) if ratio > 1e-30 else -300.0
                        self.loop_seconds += clock() - t0
                    if n % every == every - 1:
                        t0 = clock()
                        misalignment_db(truth, w)
                        self.misalignment_seconds += clock() - t0
                        self.misalignment_calls += 1
        except SingularSystemError:
            self.singular += 1
        self.steps += done
        self.step_seconds.append(steps[:done])

    def metrics(self) -> dict:
        """Per-layer figures: µs per replayed step, percentiles, counts."""
        per_step = 1e6 / self.steps
        parts = {p: self.part_seconds[p] * per_step for p in PARTS}
        steps_us = np.concatenate(self.step_seconds) * 1e6
        out = {
            "filters.push_us": self.push_seconds * per_step,
            "bench.loop_self_us": self.loop_seconds * per_step,
            "gains.us": parts["gains"],
            "filters.error_us": parts["error"],
            "filters.build_us": parts["build"],
            "filters.gram_us": parts["gram"],
            "filters.solve_us": parts["solve"],
            "filters.update_us": parts["update"],
            "filters.step_us_mean": float(steps_us.mean()),
            "filters.step_self_us": float(steps_us.mean()) - sum(parts.values()),
            "filters.step_us_p50": float(np.percentile(steps_us, 50)),
            "filters.step_us_p99": float(np.percentile(steps_us, 99)),
            "filters.solve_calls": self.solve_calls,
            "filters.singular_count": self.singular,
            "signals.misalignment_us": self.misalignment_seconds / self.misalignment_calls * 1e6,
            "trace.replay_max_dw": self.max_dw,
        }
        for part in PARTS:
            out[f"filters.{part}_products"] = float(np.mean([c[part][0] for c in self.costs]))
            out[f"filters.{part}_bytes"] = float(np.mean([c[part][1] for c in self.costs]))
        out["filters.step_products"] = sum(out[f"filters.{p}_products"] for p in PARTS)
        out["filters.step_bytes"] = sum(out[f"filters.{p}_bytes"] for p in PARTS)
        return out


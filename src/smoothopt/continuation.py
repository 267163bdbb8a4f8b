"""Successive smoothing: minimize a shrinking-width sequence of smoothed
functions, warm-starting each stage from the previous minimizers.

Strong smoothing erases shallow local minima while barely moving wide deep
ones, so tracking minimizers from a large width down to a small one lends the
method global behavior that single-width local descent lacks.  The warm start
extrapolates through the last two stage minimizers (the valley direction):
``start = project_X(x_curr + beta * (x_curr - x_prev))``.

Each stage's multi-step SGD run *is* the local descent of the classical
ravine method, and its :class:`~smoothopt.optimizer.RunRecord` is the
stage's whole record: the start, the weighted average the next stage
extrapolates through, and the best probe.  Stages are sequential by
definition; independent restarts run in lockstep, one stacked objective call
per SGD iteration for all of them (see :func:`smoothopt.optimizer.sgd_run`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .penalty import FeasibleSet
from .smoothing import EvaluationError
from .optimizer import (RunRecord, Schedule, StepRule, WidthRule, _lockstep_starts, sgd_run,
                        step_kinds)

__all__ = [
    "SmoothingPlan",
    "ContinuationResult",
    "ravine_start",
    "successive_smoothing",
    "geometric_widths",
    "default_plan",
]


def geometric_widths(h0: float, stages: int, decay: float = 0.5) -> tuple[float, ...]:
    """Strictly decreasing widths ``h0 * decay**s`` for ``s = 0..stages-1``."""
    if not h0 > 0:
        raise ValueError("initial width h0 must be positive")
    if stages < 1:
        raise ValueError("need at least one stage")
    if not 0 < decay < 1:
        raise ValueError("decay must lie in (0, 1)")
    return tuple(h0 * decay ** s for s in range(stages))


@dataclass(frozen=True)
class SmoothingPlan:
    """Stage widths plus the per-stage inner run configuration.

    ``widths`` must be strictly decreasing.  ``steps`` gives one step rule per
    stage (a single rule may be broadcast).  Each stage holds its width fixed,
    unless a ``width_rule`` sets the width within every stage, such as the
    coupled ``h_t = L * rho_t / K`` (:meth:`WidthRule.coupled`).  The widths
    then only label the stages, and a one-stage plan may label its stage
    ``None``.
    """

    widths: tuple[float | None, ...]
    steps: tuple[StepRule, ...]
    iterations: int
    batch_size: int
    ravine_beta: float = 1.0
    width_rule: WidthRule | None = None

    def __post_init__(self):
        widths = tuple(self.widths)
        if widths != (None,) or self.width_rule is None:
            widths = tuple(float(h) for h in widths)
            if len(widths) < 1:
                raise ValueError("plan needs at least one stage width")
            if any(not h > 0 for h in widths):
                raise ValueError("stage widths must be positive")
            if any(b >= a for a, b in zip(widths, widths[1:])):
                raise ValueError("stage widths must be strictly decreasing")
        steps = tuple(self.steps) if isinstance(self.steps, Sequence) else (self.steps,)
        if len(steps) == 1:
            steps = steps * len(widths)
        if len(steps) != len(widths):
            raise ValueError("need one step rule per stage (or a single rule)")
        if self.iterations < 1 or self.batch_size < 1:
            raise ValueError("iterations and batch size must be at least 1")
        if self.ravine_beta < 0:
            raise ValueError("ravine beta must be nonnegative")
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "steps", steps)

    @property
    def stages(self) -> int:
        return len(self.widths)

    def schedule(self, stage: int) -> Schedule:
        width = WidthRule.fixed(self.widths[stage]) if self.width_rule is None else self.width_rule
        return Schedule(step=self.steps[stage], width=width)


@dataclass
class ContinuationResult:
    """Outcome of the outer loop; a lockstep result has a leading run axis.

    ``stages[s]`` is the :class:`RunRecord` of stage ``s``: its ``x_first`` is
    the stage's start, and its ``weighted_average`` the point the next stage's
    start extrapolates through.  The stage's width is ``plan.widths[s]``.
    """

    best_point: np.ndarray
    best_value: float | np.ndarray
    stages: list[RunRecord]
    evaluations: int

    def run(self, s: int) -> "ContinuationResult":
        """Result of run ``s`` of a lockstep batch."""
        return ContinuationResult(best_point=self.best_point[s],
                                  best_value=float(self.best_value[s]),
                                  stages=[stage.run(s) for stage in self.stages],
                                  evaluations=self.evaluations)


def ravine_start(x_prev, x_curr, beta: float, X: FeasibleSet) -> np.ndarray:
    """Extrapolate through two successive minimizers, projected back into X."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    x_prev = np.asarray(x_prev, dtype=float)
    x_curr = np.asarray(x_curr, dtype=float)
    return X.project(x_curr + beta * (x_curr - x_prev))


def successive_smoothing(F: Callable, X: FeasibleSet, plan: SmoothingPlan,
                         kernel: str, x0, rng) -> ContinuationResult:
    """Run the outer smoothing loop over ``plan.widths``.

    Stage 0 starts from ``x0``; stage 1 from stage 0's weighted average (no
    extrapolation is possible with a single minimizer); stage ``s >= 2`` from
    the ravine extrapolation of the two previous weighted averages.  The result
    reports the best value of the batch objective ``F`` over all probes, and
    each stage as the :class:`RunRecord` of its SGD run (start, averages and
    best probe, no iterates).  ``kernel`` names the direction law, as for :func:`sgd_run`.

    ``x0`` of shape ``(S, n)`` runs S restarts in lockstep, with ``rng`` a
    sequence of S seeds or generators, one per restart; the result then has a
    leading run axis (see :meth:`ContinuationResult.run`).  ``evaluations``
    counts per run.  Each restart's generator carries over from stage to
    stage, so its directions are one stream in run order.
    """
    x0, rng, single = _lockstep_starts(x0, rng)
    gens = [r if isinstance(r, np.random.Generator) else np.random.default_rng(r) for r in rng]

    stages: list[RunRecord] = []
    best_value = np.full(len(x0), np.inf)
    best_point = x0.copy()

    for s in range(plan.stages):
        if s == 0:
            start = x0
        elif s == 1:
            start = stages[0].weighted_average
        else:
            start = ravine_start(stages[s - 2].weighted_average, stages[s - 1].weighted_average,
                                 plan.ravine_beta, X)
        try:
            record = sgd_run(F, X, start, plan.schedule(s), kernel,
                             plan.batch_size, plan.iterations, gens)
        except EvaluationError as err:
            raise err.with_context(stage=s) from None
        better = record.best_value < best_value
        best_value = np.where(better, record.best_value, best_value)
        best_point[better] = record.best_point[better]
        stages.append(record)

    result = ContinuationResult(best_point=best_point, best_value=best_value, stages=stages,
                                evaluations=sum(record.evaluations for record in stages))
    return result.run(0) if single else result


def default_plan(X: FeasibleSet, *, iterations: int, batch_size: int,
                 L: float, stages: int = 11, decay: float = 0.5,
                 beta: float = 1.0, C: float = 1.0,
                 step_kind: str = "sphere-decaying",
                 step_alpha: float = 0.1) -> SmoothingPlan:
    """Plan with geometric widths from half the diameter of ``X`` down ~1000x.

    The default 11 stages at decay 0.5 end near ``1e-3 * h0``.  Step rules are
    built per stage with the distance bound tied to the stage scale
    (``D_s = 2 * h_s``): a stage's minimizer is expected within the previous
    stage's width of the warm start, so steps sized to the whole domain would
    be wasted after the first stage.  ``step_kind`` is a kind that a config
    ``plan`` takes (see :data:`smoothopt.optimizer.STEP_KINDS`) with the
    parameters ``step_alpha`` and ``C``: ``"constant-scaled"`` uses
    ``rho_s = step_alpha * h_s / L``.
    """
    if step_kind not in step_kinds("plan"):
        raise ValueError(f"unsupported default step kind {step_kind!r}")
    lower, upper = X.bounding_box()
    diameter = float(np.linalg.norm(upper - lower))
    if not diameter > 0:
        raise ValueError("projection set has zero diameter")
    widths = geometric_widths(0.5 * diameter, stages, decay)
    step = {"kind": step_kind, "alpha": step_alpha, "C": C}
    steps = tuple(StepRule.build(step, h=h, D=2.0 * h, L=L, n=lower.size, K=batch_size,
                                 T=iterations) for h in widths)
    return SmoothingPlan(widths=widths, steps=steps, iterations=iterations,
                         batch_size=batch_size, ravine_beta=beta)

"""smoothopt: derivative-free constrained global optimization.

Constrained problems are reduced to unconstrained ones by exact nonsmooth
penalties, then minimized by successive stochastic smoothing: a decreasing
sequence of kernel widths, each smoothed function minimized locally by
projected two-point stochastic finite-difference gradient descent with
trajectory averaging, warm-started along the valley through the previous
stage minimizers.

Quick start::

    import numpy as np
    import smoothopt as so

    problem = so.make_problem("polygon", n=4)
    X = problem.domain
    h0 = 0.5 * X.diameter
    L = so.estimate_lipschitz(problem.objective_batch, X, h0, rng=0)
    widths = so.geometric_widths(h0, stages=11, decay=0.5)
    plan = so.SmoothingPlan(
        widths=widths,
        steps=tuple(so.StepRule.constant(0.5 * h / L) for h in widths),
        iterations=600, batch_size=2, ravine_beta=0.5)
    result = so.successive_smoothing(
        problem.objective_batch, X, plan, "sphere",
        problem.sample_start(np.random.default_rng(0)), rng=1)
    print("area:", problem.report(result.best_value))   # ~0.4999 (ideal 0.5)

Every objective the optimizer layers call is a batch objective, rows ``(m, n)``
in and ``m`` values out; wrap a one-point ``f`` as ``lambda P: np.array([f(p) for p in P])``.
"""

from .penalty import (
    Ball,
    Box,
    ConfigurationError,
    ContractViolationError,
    CustomSet,
    FeasibleSet,
    PenaltySpec,
    penalize,
    penalized_batch,
    penalized_function,
    ray_retraction,
)
from .smoothing import (
    EvaluationError,
    Kernel,
    grad_estimate,
    second_moment_check,
    smoothed_value,
)
from .optimizer import (
    RunRecord,
    Schedule,
    StepRule,
    WidthRule,
    estimate_lipschitz,
    sgd_run,
    rate_bound,
)
from .continuation import (
    ContinuationResult,
    SmoothingPlan,
    geometric_widths,
    ravine_start,
    successive_smoothing,
)
from .problems import (
    CalibrationFunction,
    PolygonProblem,
    ProblemInstance,
    calibration,
    make_problem,
    problem_names,
)

__version__ = "0.1.0"

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

    problem = so.make_problem("polygon", n=3)
    plan = so.default_plan(problem.domain, iterations=200, batch_size=2, L=15.0)
    result = so.successive_smoothing(
        problem.objective_batch, problem.domain, plan, "sphere",
        problem.sample_start(np.random.default_rng(0)), rng=0)
    print("area:", problem.report(result.best_value))

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
    GradientEstimate,
    Kernel,
    SmoothedValue,
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
    default_plan,
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

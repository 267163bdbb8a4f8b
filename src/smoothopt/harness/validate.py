"""Statistical validation suites behind ``smoothopt validate <suite>``.

Each suite returns a list of :class:`Check` rows (measured value, bound,
pass/fail); the CLI prints them and exits nonzero when any check fails.  The
acceptance tests drive the same functions, so the command line and the test
suite agree by construction.

The gradient suite compares the two-point estimator against an *independent*
quadrature oracle: central differences of Monte-Carlo smoothed values taken
with common random numbers, never through the estimator's own code path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..optimizer import StepRule, Schedule, WidthRule, sgd_run, rate_bound
from ..penalty import Ball, Box, FeasibleSet, PenaltySpec, _row_norms, penalized_batch
from ..problems import calibration
from ..smoothing import Kernel, _order, grad_estimate, second_moment_check, smoothed_value

__all__ = ["Check", "gradient_suite", "moments_suite", "rate_suite",
           "penalty_suite", "exactness_checks", "lipschitz_checks",
           "quadrature_gradient", "SUITES"]


@dataclass
class Check:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: measured {self.measured:.6g} vs bound {self.bound:.6g}{extra}"


# ---------------------------------------------------------------------------
# gradient estimator vs quadrature oracle

# Rows per objective call in quadrature_gradient: bounds its probe buffers.
_ORACLE_BLOCK_ROWS = 8192


def _mean_se(d):
    """``d.mean()`` and ``d.std(ddof=1) / sqrt(N)`` by numpy's own steps, in place on `d`."""
    mean = np.add.reduce(d) / d.size
    d -= mean
    d *= d
    return mean, np.sqrt(np.add.reduce(d) / (d.size - 1)) / math.sqrt(d.size)


def quadrature_gradient(batch_f, x, kernel: Kernel, samples: int,
                        rng: np.random.Generator, delta_frac: float = 0.02, *, work=None):
    """Central-difference gradient of the smoothed function, with its SE.

    One set of kernel draws is shared by both sides of every coordinate
    difference (common random numbers), so the Monte-Carlo noise largely
    cancels and the standard error comes from the paired differences
    themselves.  Independent of the two-point estimator by construction.

    Memory is one ``(samples, n)`` array, the head of `work` (C-contiguous
    float64, reusable across calls; new when None), where the draws become
    ``s = x + h*z`` in place.  In blocks of ``_ORACLE_BLOCK_ROWS`` rows,
    coordinates inside, the probes ``s +- delta*e_i`` go to ``batch_f``
    through two fixed buffers (so an objective may return a view of its
    input); the block's paired differences, gathered in a third, overwrite
    it, and :func:`_mean_se` works in place on each column.  Bit for bit.
    """
    if samples < 2:
        raise ValueError("the oracle needs at least 2 samples for its standard error")
    if not delta_frac > 0:
        raise ValueError(f"delta_frac must be positive, got {delta_frac}")
    x = np.asarray(x, dtype=float)
    n = x.size
    work = np.empty(samples * n) if work is None else work
    if work.dtype != np.float64 or not work.flags.c_contiguous or work.size < samples * n:
        raise ValueError(f"work must be C-contiguous float64 with at least {samples * n} entries")
    shifted = kernel.sample_smoothing_points(n, samples, rng,
                                             out=work.reshape(-1)[:samples * n].reshape(samples, n))
    shifted *= kernel.h
    np.add(shifted, x, out=shifted, order=_order(shifted))
    delta = delta_frac * kernel.h
    rows = min(samples, _ORACLE_BLOCK_ROWS)
    plus, minus, diffs = np.empty((rows, n)), np.empty((rows, n)), np.empty((rows, n))
    for start in range(0, samples, rows):
        s = shifted[start:start + rows]
        p, m, d = plus[:len(s)], minus[:len(s)], diffs[:len(s)]
        for i in range(n):
            # adding and subtracting 0.0 elsewhere is s +- e to the bit,
            # signed zeros included
            np.add(s, 0.0, out=p)
            np.add(s[:, i], delta, out=p[:, i])
            np.subtract(s, 0.0, out=m)
            np.subtract(s[:, i], delta, out=m[:, i])
            np.subtract(batch_f(p), batch_f(m), out=d[:, i])
        np.divide(d, 2.0 * delta, out=s)
    grad, se = np.transpose([_mean_se(column) for column in shifted.T])
    return grad, se


def _estimator_mean(batch_f, x, kernel: Kernel, replicates: int, batch: int,
                    rng: np.random.Generator):
    """Mean unbiased gradient over replicate batches, with replicate-based SE."""
    means = np.empty((replicates, np.asarray(x).size))
    scale = kernel.gradient_scale(means.shape[1])
    for r in range(replicates):
        means[r] = scale * grad_estimate(batch_f, x, kernel, batch, rng)
    return means.mean(axis=0), means.std(axis=0, ddof=1) / math.sqrt(replicates)


def gradient_suite(*, dims=(1, 2, 3), widths=(0.5, 0.1), kernels=("sphere", "gaussian"),
                   points: int = 10, replicates: int = 50, batch: int = 2000,
                   oracle_samples: int = 1_000_000, tolerance_sigmas: float = 4.0,
                   seed: int = 20240801) -> list[Check]:
    """Unbiasedness of the two-point estimator on the l1 norm.

    For every dimension/kernel/width the estimator's mean over
    ``replicates * batch`` samples is compared componentwise with the
    quadrature oracle at random points; the reported measure is the largest
    deviation in combined standard errors; a non-finite deviation fails.
    """
    for name, value, least in (("points", points, 1), ("replicates", replicates, 2),
                               ("batch", batch, 1), ("oracle_samples", oracle_samples, 2),
                               ("len(dims)", len(dims), 1), ("len(kernels)", len(kernels), 1),
                               ("len(widths)", len(widths), 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    work = np.empty(oracle_samples * max(dims))  # every oracle call draws into it
    rng = np.random.default_rng(seed)
    checks = []
    for n in dims:
        f = calibration("l1-norm", n).batch
        for variant in kernels:
            for h in widths:
                kernel = Kernel(variant, h)
                deviations = []
                for _ in range(points):
                    x = rng.uniform(-1.0, 1.0, size=n)
                    est, est_se = _estimator_mean(f, x, kernel, replicates, batch, rng)
                    orc, orc_se = quadrature_gradient(f, x, kernel, oracle_samples, rng, work=work)
                    # floor the SE at rounding scale: in locally affine regions
                    # both sides are deterministic and agree to machine epsilon
                    combined = np.maximum(np.sqrt(est_se ** 2 + orc_se ** 2), 1e-9)
                    deviations.append(np.max(np.abs(est - orc) / combined))
                # np.max keeps a NaN, which then fails the comparison below
                worst = float(np.max(deviations))
                checks.append(Check(
                    name=f"gradient l1 n={n} {variant} h={h}",
                    passed=worst <= tolerance_sigmas,
                    measured=worst, bound=tolerance_sigmas,
                    detail=f"max |estimator - quadrature| in combined SEs over {points} points",
                ))
    return checks


# ---------------------------------------------------------------------------
# second-moment bounds

def moments_suite(*, n: int = 4, L: float = 2.0, h: float = 0.05,
                  probes: int = 200_000, slack: float = 0.05,
                  seed: int = 20240802) -> list[Check]:
    """Single-sample second moments against the kernel variance bounds.

    Sphere directions are checked against ``L^2/n`` with `slack` (the constant
    is tight on linear functions, so the measured mean should also sit close
    to the bound).  Gaussian directions are checked against the attainable
    ``(n+4) L^2``; the exact value on a linear objective is ``(n+2) L^2``,
    which already exceeds the oft-quoted ``n L^2``, so that reference is
    reported but not asserted.
    """
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n)
    c *= L / np.linalg.norm(c)

    def linear(X):
        return np.asarray(X, dtype=float) @ c

    l1 = calibration("l1-norm", n).batch
    L1 = math.sqrt(n)  # Euclidean Lipschitz constant of the l1 norm
    x_far = np.full(n, 1.0)  # farther than 3h from every kink of the l1 norm

    checks = []
    for name, f, Lf, x in (("linear", linear, L, np.zeros(n)),
                           ("l1", l1, L1, x_far)):
        m = second_moment_check(f, x, Kernel.sphere(h), probes, rng)
        bound = (1.0 + slack) * Lf ** 2 / n
        checks.append(Check(
            name=f"sphere second moment ({name})",
            passed=m <= bound, measured=m, bound=bound,
            detail=f"C*L^2/n with C=1 and {slack:.0%} statistical slack",
        ))
        checks.append(Check(
            name=f"sphere second moment tight ({name})",
            passed=abs(m * n / Lf ** 2 - 1.0) <= slack,
            measured=m, bound=Lf ** 2 / n,
            detail="mean should sit at L^2/n (C=1 is tight here)",
        ))
    for name, f, Lf, x in (("linear", linear, L, np.zeros(n)),
                           ("l1", l1, L1, x_far)):
        m = second_moment_check(f, x, Kernel.gaussian(h), probes, rng)
        exact = (n + 2.0) * Lf ** 2
        checks.append(Check(
            name=f"gaussian second moment ({name})",
            passed=m <= (n + 4.0) * Lf ** 2,
            measured=m, bound=(n + 4.0) * Lf ** 2,
            detail=f"exact value on this objective is (n+2)L^2 = {exact:.6g}; "
                   f"the stated n*L^2 = {n * Lf ** 2:.6g} is below it",
        ))
    return checks


# ---------------------------------------------------------------------------
# empirical convergence rate

def rate_suite(*, n: int = 10, K: int = 8, h: float = 0.1, D: float = 2.0,
               C: float = 1.0, checkpoints=(100, 1000, 10000), seeds: int = 20,
               eval_samples: int = 100_000, master_seed: int = 20240803) -> list[Check]:
    """Median optimality gap of weighted averages against the decaying-step bound.

    Runs projected SGD on the l1 norm over the unit ball with sphere
    directions and checks, at each checkpoint ``t``, that the median of
    ``F_h(xbar_t) - F_h(0)`` over the seeds stays below the matching bound.
    ``F_h`` values come from Monte-Carlo smoothing, never from the optimizer.

    ``xbar_t`` is the weighted average of a lockstep run of ``t`` steps over
    all seeds, each restarted from its child generator.  It is the longest
    run's average at ``t``, bit for bit: the decaying step ignores the
    horizon, a run never draws past its last step, and the sums add in order.
    A seed makes ``2K`` x (sum of checkpoints) evaluations, 177,600 at the
    defaults, not 160,000.  ``F_h`` draws go on from the longest run.
    """
    checkpoints = tuple(int(t) for t in checkpoints)
    if min(checkpoints) < 2:  # an empty tuple raises here too
        raise ValueError("decaying-step bounds are undefined at t < 2")
    if len(set(checkpoints)) < len(checkpoints):  # a repeat would pool its gaps twice
        raise ValueError(f"checkpoints must be distinct, got {checkpoints}")
    L = math.sqrt(n)
    f = calibration("l1-norm", n).batch
    X = Ball(np.zeros(n), 1.0)
    step = StepRule("sphere-decaying", D=D, L=L, n=n, K=K, C=C)
    schedule = Schedule(step=step, width=WidthRule.fixed(h))
    kernel = Kernel.sphere(h)

    root = np.random.SeedSequence(master_seed)
    ref_rng = np.random.default_rng(root.spawn(1)[0])
    ref, _ = smoothed_value(f, np.zeros(n), kernel, eval_samples, ref_rng)

    children = root.spawn(seeds)
    xbar = {}
    for t in sorted(checkpoints):  # the longest run last: its generators go on
        gens = [np.random.default_rng(ss) for ss in children]
        x1 = np.array([X.sample(1, g)[0] for g in gens])
        xbar[t] = sgd_run(f, X, x1, schedule, "sphere", K, t, gens).weighted_average
    gaps = {t: [] for t in checkpoints}
    for s, child in enumerate(gens):
        for t in checkpoints:
            val, _ = smoothed_value(f, xbar[t][s], kernel, eval_samples, child)
            gaps[t].append(val - ref)

    checks = []
    for t in checkpoints:
        med = float(np.median(gaps[t]))
        bound = rate_bound("sphere-decaying", D=D, L=L, n=n, K=K, C=C, t=t)
        checks.append(Check(
            name=f"rate t={t}",
            passed=med <= bound, measured=med, bound=bound,
            detail=f"median over {seeds} seeds of F_h(xbar_t) - F_h(0)",
        ))
    return checks


# ---------------------------------------------------------------------------
# penalty exactness (grids) and Lipschitz propagation (quotients)

def _clip_halfplane(vertices: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by ``a . x <= b``."""
    out = []
    m = len(vertices)
    for i in range(m):
        p, q = vertices[i], vertices[(i + 1) % m]
        pin, qin = a @ p <= b, a @ q <= b
        if pin:
            out.append(p)
        if pin != qin:
            t = (b - a @ p) / (a @ (q - p))
            out.append(p + t * (q - p))
    return np.asarray(out)


class _Polygon(FeasibleSet):
    """A convex polygon (CCW vertices) with an exact projection of many rows at once."""

    def __init__(self, vertices: np.ndarray):
        self.vertices = vertices

    def project(self, points):
        points = np.atleast_2d(points)
        m = len(self.vertices)
        edges = [(self.vertices[i], self.vertices[(i + 1) % m]) for i in range(m)]
        inside = np.ones(len(points), dtype=bool)
        best = np.full(len(points), np.inf)
        proj = np.empty_like(points)
        for v, w in edges:
            e = w - v
            cross = e[0] * (points[:, 1] - v[1]) - e[1] * (points[:, 0] - v[0])
            inside &= cross >= 0.0
            t = np.clip(((points - v) @ e) / (e @ e), 0.0, 1.0)
            cand = v + t[:, None] * e
            d = ((points - cand) ** 2).sum(axis=1)
            better = d < best
            best = np.where(better, d, best)
            proj[better] = cand[better]
        proj[inside] = points[inside]
        return proj


def exactness_checks(*, grid: int = 400, multipliers=(0.1, 1.0, 10.0)) -> list[Check]:
    """Exact-penalty equivalence on three 2-D problems, on any grid.

    The distance penalty F2 takes its minimum f* over an enclosing box X
    only on the set.  On a grid that holds up to the value error of one
    cell, L times its diagonal: the F2 minimum undercuts the minimum of f
    over the feasible grid points by no more, nor is its term ``M * dist``
    larger.  The larger of the two, in units of that error, must be at most
    1.  The argmins are not compared: near a curved boundary each slides
    along the arc by about ``sqrt(radius * cell)``.
    """
    def f3_batch(P):
        return np.maximum(0.3 * P[:, 0] + P[:, 1], -P[:, 0] - 0.2 * P[:, 1] - 0.25)

    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    problems = [  # name, f, the set, the grid box X and f's Lipschitz constant
        # minimized height over a disc: the minimizer is the apex (0.2, 0.7)
        ("linear on ball", lambda P: -P[:, 1], Ball(np.array([0.2, -0.1]), 0.8),
         Box(np.array([-0.7, -1.0]), np.array([1.295, 0.995])), 1.0),
        ("l1 on box", lambda P: np.abs(P - np.array([1.3, 0.7])).sum(axis=1),
         Box(np.zeros(2), np.ones(2)), Box(np.array([-0.5, -0.5]), np.array([1.6, 1.6])),
         math.sqrt(2.0)),
        ("piecewise max on box-halfplane", f3_batch,
         _Polygon(_clip_halfplane(square, np.array([1.0, 1.0]), 0.5)),
         Box(np.array([-1.4, -1.4]), np.array([1.4, 1.4])), math.hypot(0.3, 1.0)),
    ]

    checks = []
    for name, f_batch, feasible, X, L in problems:
        xs = np.linspace(X.lower[0], X.upper[0], grid)
        ys = np.linspace(X.lower[1], X.upper[1], grid)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        P = np.column_stack([gx.ravel(), gy.ravel()])
        dist = np.linalg.norm(P - feasible.project(P), axis=1)
        f_min = float(np.min(f_batch(P[dist <= 1e-9])))
        cell = L * math.hypot(xs[1] - xs[0], ys[1] - ys[0])
        for M in multipliers:
            F2 = penalized_batch(f_batch, feasible, PenaltySpec(kind="distance", M=M))(P)
            i = int(np.argmin(F2))
            measured = max(f_min - float(F2[i]), M * float(dist[i])) / cell
            checks.append(Check(
                name=f"exactness {name} M={M}", passed=measured <= 1.0,
                measured=measured, bound=1.0,
                detail=f"F2 min {float(F2[i]):.6g} at ({P[i, 0]:.4g}, {P[i, 1]:.4g}), "
                       f"{float(dist[i]):.3g} from the set; f min over feasible grid "
                       f"points {f_min:.6g}; one cell {cell:.3g}",
            ))
    return checks


def lipschitz_checks(*, quotient_pairs: int = 10_000, seed: int = 20240805) -> list[Check]:
    """Quotients of the distance penalty never exceed ``L + 2M`` (plus slack)."""
    rng = np.random.default_rng(seed)
    checks = []
    L, M = math.sqrt(2.0), 10.0
    F = penalized_batch(calibration("l1-norm", 2).batch, Ball(np.zeros(2), 1.0),
                        PenaltySpec(kind="distance", M=M))
    pairs = rng.uniform(-5.0, 5.0, size=(quotient_pairs, 2, 2))
    values = F(pairs.reshape(-1, 2)).reshape(-1, 2)
    # the one-point norm's bits, so each quotient is that of its pair alone
    denom = _row_norms(pairs[:, 0] - pairs[:, 1])
    apart = denom > 0
    worst = float(np.max(np.abs(values[apart, 0] - values[apart, 1]) / denom[apart], initial=0.0))
    bound = L + 2 * M + 1e-9
    checks.append(Check(
        name="lipschitz propagation (distance penalty)",
        passed=worst <= bound, measured=worst, bound=bound,
        detail=f"{quotient_pairs} random difference quotients, L={L:.4f}, M={M}",
    ))
    return checks


def penalty_suite(*, grid: int = 400, multipliers=(0.1, 1.0, 10.0),
                  quotient_pairs: int = 10_000) -> list[Check]:
    """Exactness grids plus Lipschitz propagation in one report."""
    return (exactness_checks(grid=grid, multipliers=multipliers)
            + lipschitz_checks(quotient_pairs=quotient_pairs))


SUITES = {
    "gradient": gradient_suite,
    "moments": moments_suite,
    "rate": rate_suite,
    "penalty": penalty_suite,
}

"""Built-in test problems.

The main benchmark is the Largest Small Polygon: among polygons with ``n``
vertices and diameter at most 1, find the one of maximal area.  Vertex ``i``
sits at polar coordinates ``(r_i, theta_i)`` with ``theta_i = phi_1 + ... +
phi_i``; the first vertex is pinned at the origin (``r_1 = phi_1 = 0``).  The
constrained maximization is folded into a single total function by three
nested penalties (angle-sum rescaling, pairwise-diameter violation, box
retraction), so the optimizer simply minimizes its negative over a box.

Known optima: ``sqrt(3)/4 ~ 0.4330`` for n=3 (equilateral triangle), ``0.5``
for n=4 (unit-diagonal square), approaching ``pi/4 ~ 0.7854`` as n grows.

Calibration functions with closed-form minima exercise the estimator and rate
machinery; ``lsc-step-1d`` is discontinuous with a known Gaussian-smoothed
form, probing the smoothing construction beyond continuous objectives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .penalty import Box, FeasibleSet, one_row
from .smoothing import _row_sum

__all__ = [
    "PolygonProblem",
    "CalibrationFunction",
    "ProblemInstance",
    "calibration",
    "make_problem",
    "problem_names",
    "problem_parameters",
    "normal_cdf",
]


def normal_cdf(z: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class PolygonProblem:
    """Largest Small Polygon with penalty coefficients ``p1, p2, p3``.

    The raw decision vector ``z`` has length ``2n``: radii then angles,
    including the pinned first coordinates.  The optimizer works on the
    reduced vector of length ``2n - 2`` (pinned entries removed); see
    :meth:`embed`.
    """

    n: int
    p1: float = 1.0
    p2: float = 1.0
    p3: float = 10.0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if min(self.p1, self.p2, self.p3) <= 0:
            raise ValueError("penalty coefficients must be positive")
        # the feasible boxes on the raw vector: the pinned first coordinates get [0, 0] sides
        object.__setattr__(self, "_upper", self.embed(self.boxes().upper)[0])
        object.__setattr__(self, "_pairs", np.stack(np.triu_indices(self.n, k=1)))

    @property
    def phi_max(self) -> float:
        return 2.0 * math.pi / self.n

    @property
    def dimension(self) -> int:
        """Length of the reduced decision vector."""
        return 2 * self.n - 2

    # -- raw decision vector helpers -------------------------------------

    def embed(self, v) -> np.ndarray:
        """Reduced vectors ``(r_2..r_n, phi_2..phi_n)`` to rows of full ``z`` with pins."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.dimension,):
            raise ValueError(f"expected reduced vectors of length {self.dimension}")
        n = self.n
        z = np.zeros((v.size // self.dimension, 2 * n))
        z[:, 1:n] = v[..., :n - 1]
        z[:, n + 1:] = v[..., n - 1:]
        return z

    # -- penalized objective ----------------------------------------------

    def penalized_batch(self, z) -> np.ndarray:
        """Vector of penalized areas for rows of ``z`` (shape ``(m, 2n)``)."""
        z = np.asarray(z, dtype=float)
        n = self.n
        if z.shape[-1:] != (2 * n,):
            raise ValueError(f"expected decision vectors of length {2 * n}")
        z = z.reshape(-1, 2 * n)
        # box projection in one clip; the pinned first coordinates stay 0
        z_hat = z.clip(0.0, self._upper)
        # distances to the r box and the phi box, one reduction over both halves,
        # taken first so that its temporaries are gone before the pair arrays exist
        residual = np.sqrt(np.add.reduce(np.square(z - z_hat).reshape(-1, 2, n), axis=2))
        r_hat, phi_hat = z_hat[:, :n], z_hat[:, n:]

        # angles summing past pi are scaled down to pi and the excess penalized; with the
        # sum capped at pi the other rows get the exact factor 1.0 and excess 0.0
        capped = np.maximum(np.add.reduce(phi_hat, axis=1), math.pi)
        area_phi = phi_hat * (math.pi / capped)[:, None]
        f1 = 0.5 * np.add.reduce(r_hat[:, 1:] * r_hat[:, :-1] * np.sin(area_phi[:, 1:]), axis=1)
        f1 -= self.p1 * (capped - math.pi)

        # Pairwise distances use the unrescaled angles, exactly as composed.
        # Each violating pair is penalized on its own: slack from pairs closer
        # than 1 must not offset genuine diameter violations, or the surrogate
        # stops being exact and its maximum overshoots the constrained optimum.
        theta = np.add.accumulate(phi_hat, axis=1)
        ri, rj = r_hat.T[self._pairs]  # (pairs, m) each
        span = np.subtract(*theta.T[self._pairs[::-1]])  # theta_j - theta_i
        sq = ri ** 2 + rj ** 2 - 2.0 * ri * rj * np.cos(span)
        dist = np.sqrt(np.maximum(sq, 0.0))
        # Sum the violations pair by pair, left to right, whatever the row
        # count, so a row's value does not depend on its batch; a reduction
        # would sum one row pairwise but several rows in another order.
        violation = np.add.accumulate(np.maximum(0.0, dist - 1.0))[-1]
        f2 = f1 - self.p2 * violation
        return f2 - self.p3 * (residual[:, 0] + residual[:, 1])

    # -- optimizer-facing surface ------------------------------------------

    def objective_batch(self, V) -> np.ndarray:
        """Negated penalized areas of reduced rows ``(m, 2n - 2)`` (to minimize)."""
        return -self.penalized_batch(self.embed(V))

    def boxes(self) -> Box:
        """Feasible boxes of the reduced vector: ``[0,1]^(n-1) x [0, 2pi/n]^(n-1)``."""
        m = self.n - 1
        return Box(np.zeros(2 * m), np.concatenate([np.ones(m), np.full(m, self.phi_max)]))

    def projection_set(self, inflate: float = 0.1) -> Box:
        return self.boxes().inflated_box(inflate)

    def sample_start(self, rng: np.random.Generator) -> np.ndarray:
        """Random reduced start uniform in the feasible boxes."""
        return self.boxes().sample(1, rng)[0]

    def ideal_value(self) -> float:
        """Largest area of a small polygon (diameter 1) with n vertices, where known.

        Odd n: Reinhardt's regular n-gon, ``n*sin(2pi/n) / (8*cos(pi/(2n))**2)``
        (``sqrt(3)/4`` for the triangle).  n = 4: 1/2; n = 6: 0.674981 (Graham
        1975); n = 8: 0.726868 (Audet, Hansen, Messine & Xiong 2002).  Any
        other even n gets pi/4, the area of the circle of diameter 1: the
        circle-limit upper bound, not the optimum.
        """
        if self.n == 3:
            return math.sqrt(3.0) / 4.0
        if self.n % 2:
            return self.n * math.sin(2.0 * math.pi / self.n) / (
                8.0 * math.cos(math.pi / (2.0 * self.n)) ** 2)
        return {4: 0.5, 6: 0.674981, 8: 0.726868}.get(self.n, math.pi / 4.0)


@dataclass(frozen=True)
class CalibrationFunction:
    """Closed-form test function with a known minimum.

    ``batch`` maps rows ``(m, n)`` to values; ``fn`` is its one-row call,
    derived from it when not given.
    ``lipschitz`` is the Euclidean Lipschitz constant (None when infinite).
    ``minimizer``/``min_value`` are stated over ``domain``.
    ``gaussian_smoothed`` gives ``F_h(x)``, where available in closed form.
    """

    name: str
    dimension: int
    batch: Callable[[np.ndarray], np.ndarray]
    domain: Box
    minimizer: np.ndarray
    min_value: float
    lipschitz: float | None
    gaussian_smoothed: Callable[[np.ndarray, float], float] | None = None
    fn: Callable[[np.ndarray], float] | None = None

    def __post_init__(self):
        if self.fn is None:
            object.__setattr__(self, "fn", one_row(self.batch))


def _l1(n: int) -> CalibrationFunction:
    return CalibrationFunction(
        name="l1-norm", dimension=n,
        batch=lambda X: _row_sum(np.abs, np.asarray(X, dtype=float)),
        domain=Box(-np.ones(n), np.ones(n)),
        minimizer=np.zeros(n), min_value=0.0,
        lipschitz=math.sqrt(n),
    )


def _max_coordinate(n: int) -> CalibrationFunction:
    return CalibrationFunction(
        name="max-coordinate", dimension=n,
        batch=lambda X: np.max(np.asarray(X, dtype=float), axis=-1),
        domain=Box(-np.ones(n), np.ones(n)),
        minimizer=-np.ones(n), min_value=-1.0,
        lipschitz=1.0,
    )


def _two_well() -> CalibrationFunction:
    # wide shallow well at -1 (value 0.05), global well at +1 (value 0)
    def batch(X):
        x = np.asarray(X, dtype=float).reshape(-1)
        return np.minimum(0.05 + np.abs(x + 1.0), np.abs(x - 1.0))

    return CalibrationFunction(
        name="two-well-1d", dimension=1, batch=batch,
        domain=Box(np.array([-3.0]), np.array([3.0])),
        minimizer=np.array([1.0]), min_value=0.0, lipschitz=1.0,
    )


def _lsc_step() -> CalibrationFunction:
    # 0 for x >= 0, 1 for x < 0: strongly lsc, discontinuous at 0.
    def batch(X):
        x = np.asarray(X, dtype=float).reshape(-1)
        return np.where(x >= 0.0, 0.0, 1.0)

    return CalibrationFunction(
        name="lsc-step-1d", dimension=1, batch=batch,
        domain=Box(np.array([-1.0]), np.array([1.0])),
        minimizer=np.array([0.0]), min_value=0.0, lipschitz=None,
        gaussian_smoothed=lambda x, h: normal_cdf(-float(np.asarray(x).reshape(())) / h),
    )


_CALIBRATION = {
    "l1-norm": _l1,
    "max-coordinate": _max_coordinate,
    "two-well-1d": lambda n: _two_well(),
    "lsc-step-1d": lambda n: _lsc_step(),
}


def calibration(name: str, n: int = 1) -> CalibrationFunction:
    """Look up a calibration function by name (1-D names ignore ``n``)."""
    try:
        maker = _CALIBRATION[name]
    except KeyError:
        raise ValueError(f"unknown calibration function {name!r}; "
                         f"known: {sorted(_CALIBRATION)}") from None
    if name in ("two-well-1d", "lsc-step-1d"):
        return maker(1)
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return maker(n)


@dataclass(frozen=True)
class ProblemInstance:
    """Uniform optimizer-facing wrapper used by the benchmark harness.

    ``objective_batch`` (rows to values) is minimized; ``objective`` is its
    one-row call (:func:`~smoothopt.penalty.one_row`), for checks.
    ``report`` maps an objective value to the quantity tables show (the
    polygon negates back to an area).
    """

    name: str
    dimension: int
    objective: Callable[[np.ndarray], float]
    objective_batch: Callable[[np.ndarray], np.ndarray]
    domain: FeasibleSet
    sample_start: Callable[[np.random.Generator], np.ndarray]
    report: Callable[[float], float]
    ideal_value: float | None
    lipschitz: float | None
    parameters: tuple


def make_problem(name: str, n: int | None = None, **kwargs) -> ProblemInstance:
    """Problem registry used by the CLI; see :func:`problem_names` and
    :func:`problem_parameters`."""
    if name not in problem_names():
        raise ValueError(f"unknown problem {name!r}; known: {problem_names()}")
    unknown = sorted(set(kwargs) - set(problem_parameters(name)))
    if unknown:
        raise ValueError(f"problem {name!r} takes no parameter {unknown[0]!r}; "
                         f"it takes {problem_parameters(name)}")
    if name == "polygon":
        if n is None:
            raise ValueError("polygon needs a vertex count n")
        poly = PolygonProblem(n=n, **kwargs)
        return ProblemInstance(
            name="polygon", dimension=poly.dimension,
            objective=one_row(poly.objective_batch), objective_batch=poly.objective_batch,
            domain=poly.projection_set(),
            sample_start=poly.sample_start,
            report=lambda v: -v,
            ideal_value=poly.ideal_value(),
            lipschitz=None,
            parameters=(("n", n),),
        )
    cal = calibration(name, n if n is not None else 1)
    return ProblemInstance(
        name=cal.name, dimension=cal.dimension,
        objective=cal.fn, objective_batch=cal.batch,
        domain=cal.domain,
        sample_start=lambda rng: cal.domain.sample(1, rng)[0],
        report=lambda v: v,
        ideal_value=cal.min_value,
        lipschitz=cal.lipschitz,
        parameters=(("n", cal.dimension),),
    )


def problem_names() -> list[str]:
    return ["polygon", *sorted(_CALIBRATION)]


def problem_parameters(name: str) -> list[str]:
    """What :func:`make_problem` takes for a problem: for the polygon the fields
    of :class:`PolygonProblem`, for a calibration function ``n``."""
    return [f.name for f in fields(PolygonProblem)] if name == "polygon" else ["n"]

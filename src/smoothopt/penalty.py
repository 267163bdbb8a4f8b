"""Exact penalty reduction of constrained problems over convex feasible sets.

A constrained problem ``min f(x) over x in D`` is replaced by an unconstrained
surrogate that agrees with ``f`` on ``D`` and grows away from it.  Three
constructions are provided, all exact for every positive multiplier ``M``
(the surrogate's minimizers coincide with the constrained ones, they do not
merely converge as ``M`` grows):

* ``"constraint-sum"`` -- ``f(project(x)) + M * (sum max(0, g_j(x)) + sum |h_k(x)|)``,
  available when the set carries explicit constraint functions;
* ``"distance"``       -- ``f(project(x)) + M * distance(x)``;
* ``"ray-retraction"`` -- ``f(p(x)) + M * ||x - p(x)||`` where ``p(x)`` retracts
  ``x`` onto the boundary along the segment from an interior anchor point.

``f`` is only ever evaluated at feasible points, so it may be undefined
outside ``D``.  All operations are pure given immutable inputs and safe to
call concurrently; user-supplied projection oracles must be side-effect-free.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "FeasibleSet",
    "Box",
    "Ball",
    "CustomSet",
    "PenaltySpec",
    "ContractViolationError",
    "ConfigurationError",
    "box_constraints",
    "ball_constraint",
    "project",
    "distance",
    "ray_retraction",
    "penalize",
    "penalized_function",
    "FEASIBILITY_TOL",
]

# Boundary detection must sit far below any optimization step size.
FEASIBILITY_TOL = 1e-12
# Slack granted to user projection oracles before declaring a contract breach.
ORACLE_TOL = 1e-9


class ContractViolationError(RuntimeError):
    """A user-supplied projection oracle returned an infeasible point."""


class ConfigurationError(ValueError):
    """A penalty was requested on a set that cannot support it."""


def _as_point(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


class FeasibleSet:
    """Closed convex region with projection, distance and membership oracles.

    ``project`` accepts a single point or an array of points stacked along the
    leading axes (the coordinate axis is last) and broadcasts accordingly.
    """

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def distance(self, x: np.ndarray) -> float:
        """Euclidean distance to the set: ``||x - project(x)||``."""
        x = _as_point(x)
        return float(np.linalg.norm(x - self.project(x), axis=-1)) if x.ndim == 1 \
            else np.linalg.norm(x - self.project(x), axis=-1)

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        return bool(np.all(np.linalg.norm(_as_point(x) - self.project(x), axis=-1) <= tol))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounds ``(lower, upper)`` enclosing the set."""
        raise NotImplementedError

    def inflated_box(self, fraction: float = 0.1) -> "Box":
        """Bounding box widened by `fraction` of each side's extent (split evenly)."""
        lower, upper = self.bounding_box()
        pad = 0.5 * fraction * (upper - lower)
        return Box(lower - pad, upper + pad)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw `count` points from the set; used for diagnostics, not uniform in general."""
        lower, upper = self.bounding_box()
        pts = rng.uniform(lower, upper, size=(count, lower.size))
        return self.project(pts)

    @property
    def dimension(self) -> int:
        lower, _ = self.bounding_box()
        return int(lower.size)


@dataclass(frozen=True)
class Box(FeasibleSet):
    """Axis-aligned box ``{x : lower <= x <= upper}`` (degenerate sides allowed)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_point(self.lower)
        up = _as_point(self.upper)
        if lo.shape != up.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if np.any(lo > up):
            raise ValueError("box has lower > upper in some coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    def project(self, x):
        return np.clip(_as_point(x), self.lower, self.upper)

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        x = _as_point(x)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def bounding_box(self):
        return self.lower.copy(), self.upper.copy()

    def sample(self, count, rng):
        return rng.uniform(self.lower, self.upper, size=(count, self.lower.size))


@dataclass(frozen=True)
class Ball(FeasibleSet):
    """Euclidean ball ``{x : ||x - center|| <= radius}``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _as_point(self.center)
        if c.ndim != 1:
            raise ValueError("ball center must be a 1-D array")
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    def project(self, x):
        x = _as_point(x)
        d = x - self.center
        norm = np.linalg.norm(d, axis=-1, keepdims=True)
        outside = self.center + d * (self.radius / np.where(norm == 0, 1.0, norm))
        # keep interior points bit-identical, one point or many
        return np.where(norm <= self.radius, x, outside)

    def distance(self, x):
        x = _as_point(x)
        d = np.linalg.norm(x - self.center, axis=-1) - self.radius
        out = np.maximum(d, 0.0)
        return float(out) if x.ndim == 1 else out

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        return bool(np.all(np.linalg.norm(_as_point(x) - self.center, axis=-1) <= self.radius + tol))

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def sample(self, count, rng):
        # uniform in the ball: sphere direction scaled by U^(1/n)
        n = self.center.size
        g = rng.standard_normal((count, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = rng.random(count) ** (1.0 / n)
        return self.center + self.radius * g * r[:, None]


@dataclass(frozen=True)
class CustomSet(FeasibleSet):
    """Convex set described by a user projection oracle.

    The oracle must return the Euclidean-nearest feasible point; the contract
    is documented, not verified, unless explicit constraint functions are
    supplied, in which case every oracle output is checked against them and a
    :class:`ContractViolationError` is raised on breach.  Oracles must be
    reentrant (side-effect-free by convention).

    Parameters
    ----------
    oracle : callable
        Point-to-point projection map.
    inequalities : sequence of callables, optional
        Convex functions ``g_j`` with the convention ``g_j(x) <= 0`` on the set.
    equalities : sequence of callables, optional
        Affine functions ``h_k`` with ``h_k(x) == 0`` on the set.
    bounds : pair of arrays, optional
        Axis-aligned bounding box, required only for sampling/diagnostics.
    """

    oracle: Callable[[np.ndarray], np.ndarray]
    inequalities: tuple = field(default=())
    equalities: tuple = field(default=())
    bounds: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))

    @property
    def has_constraints(self) -> bool:
        return bool(self.inequalities or self.equalities)

    def project(self, x):
        x = _as_point(x)
        if x.ndim > 1:
            return np.stack([self.project(row) for row in x])
        y = _as_point(self.oracle(x))
        if self.has_constraints and not self._satisfies(y, ORACLE_TOL):
            raise ContractViolationError(
                f"projection oracle returned an infeasible point {y!r}")
        return y

    def _satisfies(self, x, tol: float) -> bool:
        return all(g(x) <= tol for g in self.inequalities) and \
            all(abs(h(x)) <= tol for h in self.equalities)

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        x = _as_point(x)
        if self.has_constraints:
            return self._satisfies(x, tol)
        return bool(np.linalg.norm(x - self.project(x)) <= tol)

    def bounding_box(self):
        if self.bounds is None:
            raise ValueError("CustomSet needs explicit bounds for this operation")
        return _as_point(self.bounds[0]), _as_point(self.bounds[1])


def box_constraints(lower, upper) -> list:
    """Explicit inequality functions ``g(x) <= 0`` describing a box."""
    lower = _as_point(lower)
    upper = _as_point(upper)
    gs = []
    for i in range(lower.size):
        gs.append(lambda x, i=i: float(x[i] - upper[i]))
        gs.append(lambda x, i=i: float(lower[i] - x[i]))
    return gs


def ball_constraint(center, radius) -> Callable:
    """Explicit inequality function ``g(x) <= 0`` describing a Euclidean ball."""
    center = _as_point(center)
    return lambda x: float(np.linalg.norm(_as_point(x) - center) - radius)


def project(feasible: FeasibleSet, x) -> np.ndarray:
    """Euclidean projection of ``x`` onto the set (idempotent, non-expansive)."""
    return feasible.project(_as_point(x))


def distance(feasible: FeasibleSet, x) -> float:
    """Euclidean distance of ``x`` to the set; zero exactly on members."""
    return feasible.distance(_as_point(x))


def ray_retraction(feasible: FeasibleSet, anchor, x, tol: float | None = None) -> np.ndarray:
    """Retract ``x`` onto the set along the segment from a feasible anchor.

    Feasible ``x`` are returned unchanged.  Otherwise the boundary point of
    the segment ``[anchor, x]`` nearest to ``x`` is located by bisection until
    the bracket is shorter than `tol` (default ``1e-10`` times the segment
    length) and its feasible end is returned.
    """
    anchor = _as_point(anchor)
    x = _as_point(x)
    if not feasible.contains(anchor):
        raise ValueError("ray_retraction anchor must be feasible")
    if feasible.contains(x):
        return x.copy()
    seg = x - anchor
    length = float(np.linalg.norm(seg))
    if length == 0.0:
        return anchor.copy()
    if tol is None:
        tol = 1e-10 * length
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    lo, hi = 0.0, 1.0  # point(lo) feasible, point(hi) infeasible
    while (hi - lo) * length > tol:
        mid = 0.5 * (lo + hi)
        if feasible.contains(anchor + mid * seg):
            lo = mid
        else:
            hi = mid
    return anchor + lo * seg


_KINDS = ("constraint-sum", "distance", "ray-retraction")


@dataclass(frozen=True)
class PenaltySpec:
    """Choice of penalty construction and its multiplier.

    ``M`` may be any positive value; exactness does not depend on it.  The
    default of 10 keeps smoothed landscapes well scaled.  ``anchor`` is the
    interior feasible point required by the ray-retraction kind.
    """

    kind: str = "distance"
    M: float = 10.0
    anchor: np.ndarray | None = None
    retraction_tol: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {_KINDS}")
        if not self.M > 0:
            raise ValueError("penalty multiplier M must be positive")
        if self.kind == "ray-retraction":
            if self.anchor is None:
                raise ValueError("ray-retraction requires an interior anchor point")
            object.__setattr__(self, "anchor", _as_point(self.anchor))
        if self.retraction_tol is not None and not self.retraction_tol > 0:
            raise ValueError("retraction tolerance must be positive")


def penalize(f: Callable, feasible: FeasibleSet, spec: PenaltySpec, x) -> float:
    """Penalized objective value at ``x``; equals ``f(x)`` on the feasible set.

    ``f`` is evaluated at a feasible point only (the projection or the ray
    retraction of ``x``), so it may be undefined outside the set.
    """
    x = _as_point(x)
    if spec.kind == "constraint-sum":
        if not (isinstance(feasible, CustomSet) and feasible.has_constraints):
            raise ConfigurationError(
                "constraint-sum penalty needs a set with explicit constraint functions")
        p = feasible.project(x)
        viol = sum(max(0.0, g(x)) for g in feasible.inequalities)
        viol += sum(abs(h(x)) for h in feasible.equalities)
        return float(f(p)) + spec.M * viol
    if spec.kind == "distance":
        p = feasible.project(x)
        return float(f(p)) + spec.M * float(np.linalg.norm(x - p))
    p = ray_retraction(feasible, spec.anchor, x, spec.retraction_tol)
    return float(f(p)) + spec.M * float(np.linalg.norm(x - p))


def penalized_function(f: Callable, feasible: FeasibleSet, spec: PenaltySpec) -> Callable:
    """Close over :func:`penalize`, giving a total function on the whole space."""
    return lambda x: penalize(f, feasible, spec, x)

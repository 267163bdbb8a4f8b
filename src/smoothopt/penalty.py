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

Batch form.  :func:`penalized_batch` evaluates all three penalties for rows
``(m, n)`` with one call of a batch objective on the feasible rows; the
one-point :func:`penalize` is its one-row call.  A row's value does not
depend on its batch and is the one-point formula's, ``f(p) + M*||x - p||``
with numpy's one-point norm and bisection.  Two things make that hold:

* The residual norm ``||x - p||`` of one point is ``sqrt(dot(r, r))``; the
  rows' norms come from a stack of ``(1, n) @ (n, 1)`` products, which give
  that dot's bits where ``np.linalg.norm(R, axis=-1)`` does not.
* The ray retraction bisects ``s`` in ``[0, 1]`` along ``anchor + s*(x -
  anchor)``.  Every midpoint ``0.5*(lo + hi)`` of dyadic ends is an exact
  dyadic number as long as it needs at most 53 significant bits, so a
  walk's midpoints depend only on its membership decisions, and its level
  count only on the exact stop test ``2**-k * length > tol``.  Box and Ball
  give the exit fraction ``s*`` in closed form; the midpoints its binary
  expansion predicts are checked for membership in one call over the whole
  (row x level) grid, and a mask drops the levels past each row's own
  count.  A row whose decisions all equal the predicted ones took exactly
  that path, so its ``lo`` is its largest feasible path midpoint.  Rows that
  disagree (rounding near the boundary), rows deeper than 52 levels and
  every row of a set without a closed form run the level-by-level
  bisection, batched over rows.  The one-point :func:`ray_retraction` is
  the one-row case of the same code.
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
    "ray_retraction",
    "penalize",
    "penalized_function",
    "penalized_batch",
    "one_row",
    "FEASIBILITY_TOL",
]

# Boundary detection must sit far below any optimization step size.
FEASIBILITY_TOL = 1e-12
# Slack granted to user projection oracles before declaring a contract breach.
ORACLE_TOL = 1e-9
# Rows retracted together: a large batch, such as the Lipschitz estimate's,
# checks at most 128 x 53 path points at once instead of all its rows' points.
_CHUNK = 128
# Deepest bisection level whose midpoint is an exact dyadic in float64.
_EXACT_LEVELS = 52
_BELOW_ONE = np.nextafter(1.0, 0.0)
# Per bisection level k = 0..52: k itself, the bracket width 2**-k, the
# truncation scale 2**k and the midpoint offset 2**-(k+1).
_LEVEL = np.arange(_EXACT_LEVELS + 1)
_WIDTH = np.ldexp(1.0, -_LEVEL)
_SCALE = np.ldexp(1.0, _LEVEL)
_OFFSET = np.ldexp(0.5, -_LEVEL)


class ContractViolationError(RuntimeError):
    """A user-supplied projection oracle returned an infeasible point."""


class ConfigurationError(ValueError):
    """A penalty was requested on a set that cannot support it."""


def _as_point(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _as_rows(X) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected rows of shape (m, n), got shape {X.shape}")
    return X


def _row_norms(R: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of ``R``, bit-identical to ``np.linalg.norm(row)``.

    The one-point norm is a dot product; ``np.linalg.norm(R, axis=-1)`` sums
    squares instead and differs from it in the last bit on some rows.
    """
    R = np.ascontiguousarray(R)
    return np.sqrt((R[:, None, :] @ R[:, :, None])[:, 0, 0])


class FeasibleSet:
    """Closed convex region with projection and membership oracles.

    ``project`` accepts a single point or an array of points stacked along the
    leading axes (the coordinate axis is last) and broadcasts accordingly.
    """

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        return bool(np.all(np.linalg.norm(_as_point(x) - self.project(x), axis=-1) <= tol))

    def contains_rows(self, X) -> np.ndarray:
        """Membership of every row of ``X`` ``(m, n)``: :meth:`contains` row by row."""
        return np.array([self.contains(row) for row in _as_point(X)], dtype=bool)

    def exit_fraction(self, anchor: np.ndarray, X: np.ndarray) -> np.ndarray | None:
        """Per row, the ``s`` at which ``anchor + s*(x - anchor)`` leaves the set.

        The boundary is that of :meth:`contains_rows`, ``FEASIBILITY_TOL``
        outside the set.  ``None`` when the set has no closed form.  The value only predicts the ray
        retraction's bisection path, which is verified before it is used, so
        rounding error costs time, not exactness.
        """
        return None

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
        # the array method skips np.clip's dispatch; it is the same clip ufunc
        return _as_point(x).clip(self.lower, self.upper)

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        x = _as_point(x)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def contains_rows(self, X) -> np.ndarray:
        X = _as_point(X)
        return np.all((X >= self.lower - FEASIBILITY_TOL) & (X <= self.upper + FEASIBILITY_TOL),
                      axis=-1)

    def exit_fraction(self, anchor, X):
        seg = X - anchor
        bound = np.where(seg > 0, self.upper + FEASIBILITY_TOL, self.lower - FEASIBILITY_TOL)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(seg != 0, (bound - anchor) / seg, np.inf)
        return s.min(axis=-1)

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
        # np.linalg.norm's formula for real input, without its wrapper
        norm = np.sqrt(np.add.reduce(d * d, axis=-1, keepdims=True))
        outside = self.center + d * (self.radius / np.where(norm == 0, 1.0, norm))
        # keep interior points bit-identical, one point or many
        return np.where(norm <= self.radius, x, outside)

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        return bool(np.all(np.linalg.norm(_as_point(x) - self.center, axis=-1) <= self.radius + tol))

    def contains_rows(self, X) -> np.ndarray:
        # C order keeps each row's sum of squares that of the one-point call,
        # which is np.linalg.norm's formula for real input
        d = np.ascontiguousarray(X, dtype=float) - self.center
        return np.sqrt(np.add.reduce(d * d, axis=-1)) <= self.radius + FEASIBILITY_TOL

    def exit_fraction(self, anchor, X):
        # larger root of ||w + s*d||^2 = (radius + FEASIBILITY_TOL)^2, without
        # cancellation; a is |x - anchor|^2 > 0 on the infeasible rows it is asked for
        d = X - anchor
        w = anchor - self.center
        a = np.add.reduce(d * d, axis=-1)
        b = d @ w
        c = w @ w - (self.radius + FEASIBILITY_TOL) ** 2
        root = np.sqrt(np.maximum(b * b - a * c, 0.0))
        up = b > 0
        return np.where(up, -c, root - b) / np.where(up, b + root, a)

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


def ray_retraction(feasible: FeasibleSet, anchor, x, tol: float | None = None) -> np.ndarray:
    """Retract ``x`` onto the set along the segment from a feasible anchor.

    Feasible ``x`` are returned unchanged.  Otherwise the boundary point of
    the segment ``[anchor, x]`` nearest to ``x`` is located by bisection until
    the bracket is shorter than `tol` (default ``1e-10`` times the segment
    length), or no longer shrinks because `tol` is below the float
    resolution of the segment, and its feasible end is returned.
    """
    anchor = _as_point(anchor)
    x = _as_point(x)
    if not feasible.contains(anchor):
        raise ValueError("ray_retraction anchor must be feasible")
    if tol is not None and not tol > 0:
        raise ValueError("tolerance must be positive")
    return _retract(feasible, anchor, x[None], tol)[0]


def _retract(feasible: FeasibleSet, anchor: np.ndarray, X: np.ndarray,
             tol: float | None) -> np.ndarray:
    """Ray retraction of every row of ``X``, infeasible rows in chunks."""
    P = X.copy()
    outside = (~feasible.contains_rows(X)).nonzero()[0]
    for start in range(0, outside.size, _CHUNK):
        rows = outside[start:start + _CHUNK]
        P[rows] = _bisect(feasible, anchor, X[rows], tol)
    return P


def _bisect(feasible, anchor, X, tol):
    """Retraction of infeasible rows: verified predicted bisection paths, the rest walked.

    The walk runs level ``k`` while ``2**-k * length > tol``; there its
    bracket's low end is the exit fraction ``s`` truncated to ``k`` binary
    digits and its midpoint adds ``2**-(k+1)``, feasible exactly when at most
    ``s``.  One membership call checks the predicted midpoints of every row
    and level; ``queried`` masks out the levels past a row's own count.
    """
    seg = X - anchor
    length = _row_norms(seg)
    tol = 1e-10 * length if tol is None else np.full(len(X), float(tol))
    s = feasible.exit_fraction(anchor, X)
    if s is None:
        lo = _walk(feasible, anchor, seg, length, tol)
    else:
        levels = np.add.reduce(_WIDTH * length[:, None] > tol[:, None], axis=1)
        depth = np.maximum.reduce(levels)
        s = np.fmin(np.fmax(s, 0.0), _BELOW_ONE)[:, None]  # NaN -> 0
        mid = np.floor(s * _SCALE[:depth]) / _SCALE[:depth] + _OFFSET[:depth]
        inside = mid <= s
        queried = _LEVEL[:depth] < levels[:, None]
        points = anchor + mid[:, :, None] * seg[:, None]
        actual = feasible.contains_rows(points.reshape(-1, seg.shape[1])).reshape(mid.shape)
        wrong = np.logical_or.reduce(queried & (actual != inside), axis=1)
        lo = np.maximum.reduce(mid, axis=1, where=queried & inside, initial=0.0)
        rows = (wrong | (levels > _EXACT_LEVELS)).nonzero()[0]
        if rows.size:
            lo[rows] = _walk(feasible, anchor, seg[rows], length[rows], tol[rows])
    return anchor + lo[:, None] * seg


def _walk(feasible, anchor, seg, length, tol):
    """The level-by-level bisection, batched over rows; returns each row's ``lo``."""
    lo, hi = np.zeros(len(seg)), np.ones(len(seg))
    active = ((hi - lo) * length > tol).nonzero()[0]
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        inside = feasible.contains_rows(anchor + mid[:, None] * seg[active])
        new_lo = np.where(inside, mid, lo[active])
        new_hi = np.where(inside, hi[active], mid)
        # a midpoint equal to an end leaves the bracket as it was: stop there
        moved = (new_lo != lo[active]) | (new_hi != hi[active])
        lo[active], hi[active] = new_lo, new_hi
        active = active[moved & ((new_hi - new_lo) * length[active] > tol[active])]
    return lo


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

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {_KINDS}")
        if not self.M > 0:
            raise ValueError("penalty multiplier M must be positive")
        if self.kind == "ray-retraction":
            if self.anchor is None:
                raise ValueError("ray-retraction requires an interior anchor point")
            object.__setattr__(self, "anchor", _as_point(self.anchor))


def _require_constraints(feasible: FeasibleSet):
    if not (isinstance(feasible, CustomSet) and feasible.has_constraints):
        raise ConfigurationError(
            "constraint-sum penalty needs a set with explicit constraint functions")


def _violation(feasible: CustomSet, x) -> float:
    viol = sum(max(0.0, g(x)) for g in feasible.inequalities)
    return viol + sum(abs(h(x)) for h in feasible.equalities)


def one_row(f_batch: Callable) -> Callable:
    """The one-point form of a batch objective: ``f_batch`` on the one row ``x``, as a float."""
    return lambda x: float(f_batch(_as_point(x)[None])[0])


def penalize(f: Callable, feasible: FeasibleSet, spec: PenaltySpec, x) -> float:
    """Penalized objective value at ``x``; equals ``f(x)`` on the feasible set.

    ``f`` is evaluated at a feasible point only (the projection or the ray
    retraction of ``x``), so it may be undefined outside the set.
    """
    return penalized_function(f, feasible, spec)(x)


def penalized_function(f: Callable, feasible: FeasibleSet, spec: PenaltySpec) -> Callable:
    """:func:`penalized_batch` of a one-point ``f``, called on one row: a total function."""
    return one_row(penalized_batch(lambda P: np.array([float(f(p)) for p in P]), feasible, spec))


def penalized_batch(f_batch: Callable, feasible: FeasibleSet, spec: PenaltySpec) -> Callable:
    """Rows ``(m, n)`` to their ``m`` penalized values; :func:`penalize` is its one-row call.

    ``f_batch`` maps rows to values, each row as ``f`` maps one point, and
    only ever receives feasible rows (one call per batch).  Each value is
    bit-identical to that of its row alone.  The set and the anchor are
    checked once, here.
    """
    if spec.kind == "constraint-sum":
        _require_constraints(feasible)

        def constraint_sum(X):
            X = _as_rows(X)
            viol = np.array([_violation(feasible, x) for x in X], dtype=float)
            return np.asarray(f_batch(feasible.project(X)), dtype=float) + spec.M * viol

        return constraint_sum
    if spec.kind == "ray-retraction" and not feasible.contains(spec.anchor):
        raise ValueError("ray_retraction anchor must be feasible")

    def residual(X):
        X = _as_rows(X)
        P = feasible.project(X) if spec.kind == "distance" \
            else _retract(feasible, spec.anchor, X, None)
        return np.asarray(f_batch(P), dtype=float) + spec.M * _row_norms(X - P)

    return residual

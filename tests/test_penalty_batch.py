"""Batch penalties against the one-point path, bit for bit (property tests)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothopt import penalty
from smoothopt.penalty import (
    Ball,
    Box,
    CustomSet,
    PenaltySpec,
    box_constraints,
    penalize,
    penalized_batch,
    ray_retraction,
)


def reference_ray_retraction(feasible, anchor, x, tol=None):
    """The one-point bisection, kept as the loop the batch form must reproduce.

    It stops when a midpoint equals an end of the bracket, the only change
    from the original loop, which never ended there.
    """
    anchor = np.asarray(anchor, dtype=float)
    x = np.asarray(x, dtype=float)
    if feasible.contains(x):
        return x.copy()
    seg = x - anchor
    length = float(np.linalg.norm(seg))
    if length == 0.0:
        return anchor.copy()
    if tol is None:
        tol = 1e-10 * length
    lo, hi = 0.0, 1.0
    while (hi - lo) * length > tol:
        mid = 0.5 * (lo + hi)
        new = (mid, hi) if feasible.contains(anchor + mid * seg) else (lo, mid)
        if new == (lo, hi):
            break
        lo, hi = new
    return anchor + lo * seg


def _mispredict(s):
    return np.abs(np.sin(1e3 * s))


class MispredictedBall(Ball):
    """A ball whose closed-form exit fraction is wrong, forcing the walk."""

    def exit_fraction(self, anchor, X):
        return _mispredict(super().exit_fraction(anchor, X))


class MispredictedBox(Box):
    """A box whose closed-form exit fraction is wrong, forcing the walk."""

    def exit_fraction(self, anchor, X):
        return _mispredict(super().exit_fraction(anchor, X))


class HalfMispredictedBall(Ball):
    """A ball that mispredicts every other row: verified and walked rows mix in one batch."""

    def exit_fraction(self, anchor, X):
        s = super().exit_fraction(anchor, X)
        s[::2] = _mispredict(s[::2])
        return s


def _ball_oracle(center, radius):
    return Ball(center, radius).project


def make_set(kind, n, rng):
    """A feasible set of the given kind in dimension n, and an interior anchor."""
    center = rng.uniform(-2.0, 2.0, size=n)
    radius = float(rng.uniform(0.1, 3.0))
    lower = center - rng.uniform(0.0, 2.0, size=n)
    upper = center + rng.uniform(0.05, 2.0, size=n)
    if kind in ("box", "mispredicted-box"):
        cls = Box if kind == "box" else MispredictedBox
        return cls(lower, upper), lower + rng.uniform(0.0, 1.0, size=n) * (upper - lower)
    anchor = center + rng.uniform(-1.0, 1.0, size=n) * radius / np.sqrt(n)
    if kind == "ball":
        return Ball(center, radius), anchor
    if kind == "mispredicted-ball":
        return MispredictedBall(center, radius), anchor
    if kind == "half-mispredicted-ball":
        return HalfMispredictedBall(center, radius), anchor
    if kind == "custom-oracle":  # membership from the projection residual
        return CustomSet(oracle=_ball_oracle(center, radius)), anchor
    # membership from explicit constraint functions
    box = Box(lower, upper)
    return (CustomSet(oracle=box.project, inequalities=box_constraints(lower, upper)),
            lower + rng.uniform(0.0, 1.0, size=n) * (upper - lower))


def make_rows(feasible, anchor, m, rng):
    """Far and near outside rows, feasible rows, the anchor and boundary rows."""
    n = anchor.size
    lower, upper = feasible.bounding_box() if not isinstance(feasible, CustomSet) \
        else (anchor - 3.0, anchor + 3.0)
    span = upper - lower
    X = lower - span + rng.uniform(0.0, 3.0, size=(m, n)) * span
    kind = rng.integers(0, 5, size=m)
    X[kind == 1] = anchor
    for k in (2, 3, 4):
        if (kind == k).any():  # CustomSet cannot project zero rows
            p = feasible.project(X[kind == k])
            if k == 3:
                p = anchor + 0.5 * (p - anchor)  # interior
            elif k == 4:
                p = p + rng.choice([-1.0, 1.0], size=(p.shape[0], 1)) * 1e-12
            X[kind == k] = p
    return X


SET_KINDS = ["box", "ball", "mispredicted-box", "mispredicted-ball", "half-mispredicted-ball",
             "custom-oracle", "custom-constraints"]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(SET_KINDS), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 6), m=st.sampled_from([1, 2, 7, 40, 300]),
       tol=st.sampled_from([None, 1e-3, 1e-13, 1e-20]))
def test_batch_retraction_equals_one_point_loop(kind, seed, n, m, tol):
    # a fixed tol gives rows of different lengths different level counts
    rng = np.random.default_rng(seed)
    feasible, anchor = make_set(kind, n, rng)
    X = make_rows(feasible, anchor, m, rng)
    P = penalty._retract(feasible, anchor, X, tol)
    for x, p in zip(X, P):
        ref = reference_ray_retraction(feasible, anchor, x, tol)
        assert p.tobytes() == ref.tobytes()
        assert ray_retraction(feasible, anchor, x, tol).tobytes() == ref.tobytes()


def test_closed_form_sets_skip_the_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a Box or Ball row fell back to the walk")

    monkeypatch.setattr(penalty, "_walk", no_walk)
    rng = np.random.default_rng(0)
    for kind in ("box", "ball"):
        for n in (1, 4, 9):
            feasible, anchor = make_set(kind, n, rng)
            penalty._retract(feasible, anchor, rng.normal(anchor, 5.0, size=(300, n)), None)


def _specs(kind, anchor):
    if kind == "custom-constraints":
        return [PenaltySpec("constraint-sum", M=3.0), PenaltySpec("distance", M=0.5)]
    return [PenaltySpec("distance", M=3.0),
            PenaltySpec("ray-retraction", M=7.0, anchor=anchor)]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(SET_KINDS), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 6), m=st.sampled_from([1, 3, 40, 200]))
def test_penalized_batch_equals_penalize_and_sees_feasible_rows_only(kind, seed, n, m):
    rng = np.random.default_rng(seed)
    feasible, anchor = make_set(kind, n, rng)
    X = make_rows(feasible, anchor, m, rng)
    w = rng.normal(size=n)

    def f(p):
        return float(np.sin(p @ w) + np.abs(p).sum())

    seen = []

    def f_batch(P):
        seen.append(P.copy())
        return np.array([f(p) for p in P])

    on_set = feasible.contains_rows(X) & (feasible.project(X) == X).all(axis=1)
    for spec in _specs(kind, anchor):
        seen.clear()
        values = penalized_batch(f_batch, feasible, spec)(X)
        assert values.tobytes() == np.array([penalize(f, feasible, spec, x) for x in X]).tobytes()
        assert len(seen) == 1
        assert feasible.contains_rows(seen[0]).all()
        assert values[on_set].tolist() == [f(x) for x in X[on_set]]  # exact on the set


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m=st.integers(1, 50),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]))
def test_row_norms_equal_one_point_norm(seed, n, m, scale):
    R = scale * np.random.default_rng(seed).standard_normal((m, n))
    norms = penalty._row_norms(R)
    assert norms.tobytes() == np.array([np.linalg.norm(r) for r in R]).tobytes()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(SET_KINDS), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 12), m=st.integers(1, 60))
def test_contains_rows_equals_contains(kind, seed, n, m):
    rng = np.random.default_rng(seed)
    feasible, anchor = make_set(kind, n, rng)
    X = make_rows(feasible, anchor, m, rng)
    assert feasible.contains_rows(X).tolist() == [feasible.contains(x) for x in X]


def linalg_norm_ball_project(ball, x):
    """``Ball.project`` as it was, through ``np.linalg.norm``."""
    x = np.asarray(x, dtype=float)
    d = x - ball.center
    norm = np.linalg.norm(d, axis=-1, keepdims=True)
    outside = ball.center + d * (ball.radius / np.where(norm == 0, 1.0, norm))
    return np.where(norm <= ball.radius, x, outside)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m=st.integers(1, 30),
       layout=st.sampled_from(["C", "F", "strided"]))
def test_ball_norms_equal_the_linalg_norm_form(seed, n, m, layout):
    # n >= 8 sums squares pairwise along a contiguous row; F-ordered and
    # strided input take other summation orders, which must match too
    rng = np.random.default_rng(seed)
    ball = Ball(rng.uniform(-2.0, 2.0, size=n), float(rng.uniform(0.1, 3.0)))
    u = rng.standard_normal((m, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # rows on the membership boundary, a few ulps either side, and far out
    scale = ball.radius + penalty.FEASIBILITY_TOL * rng.choice([0.0, 1.0, 2.0], size=(m, 1))
    X = ball.center + u * scale * rng.choice([1.0, 1.0 + 1e-15, 1.0 - 1e-15, 3.0], size=(m, 1))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        X = np.repeat(X, 2, axis=1)[:, ::2]
    want = np.linalg.norm(np.ascontiguousarray(X) - ball.center, axis=-1)
    assert ball.contains_rows(X).tolist() == \
        (want <= ball.radius + penalty.FEASIBILITY_TOL).tolist()
    for i, norm in enumerate(want):
        # thresholds radius + TOL on a row's norm and an ulp below it: a
        # norm off by one ulp either way flips one of the two decisions
        r = norm - penalty.FEASIBILITY_TOL
        for radius in (r, np.nextafter(r, -np.inf)):
            if radius > 0:
                got = Ball(ball.center, radius).contains_rows(X)[i]
                assert got == (norm <= float(radius) + penalty.FEASIBILITY_TOL)
    assert ball.project(X).tobytes() == linalg_norm_ball_project(ball, X).tobytes()
    assert ball.project(X[0]).tobytes() == linalg_norm_ball_project(ball, X[0]).tobytes()


def test_penalized_batch_checks_set_and_anchor_up_front():
    box = Box(np.zeros(2), np.ones(2))
    with pytest.raises(penalty.ConfigurationError):
        penalized_batch(lambda P: P.sum(axis=1), box, PenaltySpec("constraint-sum"))
    with pytest.raises(ValueError, match="anchor"):
        penalized_batch(lambda P: P.sum(axis=1), box,
                        PenaltySpec("ray-retraction", anchor=[2.0, 2.0]))

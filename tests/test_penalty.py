import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothopt.penalty import (
    Ball,
    Box,
    ConfigurationError,
    ContractViolationError,
    CustomSet,
    PenaltySpec,
    penalize,
    penalized_function,
    ray_retraction,
)
from smoothopt.harness import validate


def box_constraints(lower, upper) -> list:
    """Explicit inequality functions ``g(x) <= 0`` describing a box."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    gs = []
    for i in range(lower.size):
        gs.append(lambda x, i=i: float(x[i] - upper[i]))
        gs.append(lambda x, i=i: float(lower[i] - x[i]))
    return gs


def ball_constraint(center, radius):
    """Explicit inequality function ``g(x) <= 0`` describing a Euclidean ball."""
    center = np.asarray(center, dtype=float)
    return lambda x: float(np.linalg.norm(np.asarray(x, dtype=float) - center) - radius)


UNIT_BOX = Box(np.zeros(2), np.ones(2))
UNIT_BALL = Ball(np.zeros(2), 1.0)


class TestProject:
    def test_box_clamps_componentwise(self):
        np.testing.assert_allclose(UNIT_BOX.project([2.0, -1.0]), [1.0, 0.0])

    def test_ball_scales_radially(self):
        np.testing.assert_allclose(UNIT_BALL.project([3.0, 4.0]), [0.6, 0.8])

    def test_feasible_points_fixed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(0, 1, size=2)
            np.testing.assert_array_equal(UNIT_BOX.project(x), x)
            y = UNIT_BALL.sample(1, rng)[0]
            np.testing.assert_array_equal(UNIT_BALL.project(y), y)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for feasible in (UNIT_BOX, UNIT_BALL):
            for _ in range(50):
                x = rng.uniform(-3, 3, size=2)
                p = feasible.project(x)
                np.testing.assert_allclose(feasible.project(p), p, atol=1e-15)

    def test_nonexpansive(self):
        rng = np.random.default_rng(2)
        for feasible in (UNIT_BOX, UNIT_BALL):
            for _ in range(200):
                x, y = rng.uniform(-4, 4, size=(2, 2))
                lhs = np.linalg.norm(feasible.project(x) - feasible.project(y))
                assert lhs <= np.linalg.norm(x - y) + 1e-12

    def test_batch_rows_match_pointwise(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-3, 3, size=(40, 2))
        for feasible in (UNIT_BOX, UNIT_BALL):
            batch = feasible.project(X)
            rows = np.stack([feasible.project(row) for row in X])
            np.testing.assert_array_equal(batch, rows)

    def test_custom_oracle_checked_against_constraints(self):
        bad = CustomSet(oracle=lambda x: x + 1.0,
                        inequalities=box_constraints(np.zeros(2), np.ones(2)))
        with pytest.raises(ContractViolationError):
            bad.project(np.array([5.0, 5.0]))

    def test_custom_oracle_unchecked_without_constraints(self):
        loose = CustomSet(oracle=lambda x: np.clip(x, 0.0, 1.0))
        np.testing.assert_allclose(loose.project(np.array([2.0, -1.0])), [1.0, 0.0])

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box(np.ones(2), np.zeros(2))
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0)


def random_set(kind: str, n: int, rng) -> tuple:
    """A Box (degenerate and unbounded sides included), a Ball, or a CustomSet whose
    oracle projects onto a ball or a half-space, checked against its constraint."""
    if kind == "box":
        lower = rng.uniform(-10, 10, n)
        upper = lower + rng.uniform(0, 10, n) * (rng.random(n) < 0.8)
        lower[rng.random(n) < 0.2] = -np.inf
        upper[rng.random(n) < 0.2] = np.inf
        return Box(lower, upper), 10.0
    center, radius = rng.uniform(-10, 10, n), rng.uniform(1e-3, 10)
    ball = Ball(center, radius)
    if kind == "ball":
        return ball, 10.0 + radius
    if kind == "custom-ball":
        return CustomSet(oracle=ball.project, inequalities=[ball_constraint(center, radius)]), \
            10.0 + radius
    a, b = rng.normal(size=n), rng.uniform(-10, 10)

    def halfspace(x):
        return x - max(0.0, float(a @ x) - b) / float(a @ a) * a

    return CustomSet(oracle=halfspace, inequalities=[lambda x: float(a @ x) - b]), \
        10.0 + abs(b) / np.linalg.norm(a)


def random_points(S, n, scale, rng, count):
    """Points near the set at a scale of ``scale``, a share of them inside it."""
    X = rng.uniform(-2, 2, size=(count, n)) * scale
    inside = rng.random(count) < 0.3
    if inside.any():  # CustomSet cannot stack an empty batch
        X[inside] = S.project(X[inside])
    return X


SETS = dict(kind=st.sampled_from(["box", "ball", "custom-ball", "custom-halfspace"]),
            n=st.integers(1, 6), count=st.integers(1, 30),
            scale=st.sampled_from([1e-3, 1.0, 10.0, 1e3]), seed=st.integers(0, 2 ** 32 - 1))


def rounding(*arrays) -> float:
    """Absolute slack for float rounding at the magnitude of ``arrays``."""
    return 1e-12 * (1.0 + max(float(np.max(np.abs(a[np.isfinite(a)]), initial=0.0))
                              for a in arrays))


class TestProjectionProperties:
    @settings(max_examples=150, deadline=None)
    @given(**SETS)
    def test_idempotent(self, kind, n, count, scale, seed):
        rng = np.random.default_rng(seed)
        S, size = random_set(kind, n, rng)
        P = S.project(random_points(S, n, size * scale, rng, count))
        PP = S.project(P)
        if kind == "box":
            np.testing.assert_array_equal(PP, P)
        else:
            np.testing.assert_allclose(PP, P, rtol=0, atol=rounding(P))

    @settings(max_examples=150, deadline=None)
    @given(**SETS)
    def test_nonexpansive(self, kind, n, count, scale, seed):
        rng = np.random.default_rng(seed)
        S, size = random_set(kind, n, rng)
        X = random_points(S, n, size * scale, rng, count)
        Y = random_points(S, n, size * scale, rng, count)
        lhs = np.linalg.norm(S.project(X) - S.project(Y), axis=1)
        assert np.all(lhs <= np.linalg.norm(X - Y, axis=1) + rounding(X, Y))

    @settings(max_examples=150, deadline=None)
    @given(**SETS)
    def test_batch_equals_row_by_row(self, kind, n, count, scale, seed):
        rng = np.random.default_rng(seed)
        S, size = random_set(kind, n, rng)
        X = random_points(S, n, size * scale, rng, count)
        rows = np.stack([S.project(x) for x in X])
        assert S.project(X).tobytes() == rows.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 8), count=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_box_project_is_clip_bit_for_bit(self, n, count, seed):
        rng = np.random.default_rng(seed)
        S, _ = random_set("box", n, rng)
        # signed-zero sides too: np.minimum/np.maximum and clip disagree on the sign there
        zero = rng.random(n) < 0.3
        lower = np.where(zero, rng.choice([0.0, -0.0], n), np.minimum(S.lower, 0.0))
        S = Box(lower, np.where(zero & (rng.random(n) < 0.5), 0.0, np.maximum(S.upper, 0.0)))
        special = np.array([0.0, -0.0, np.inf, -np.inf])
        X = rng.uniform(-20, 20, size=(count, n))
        X[rng.random((count, n)) < 0.3] = 0.0
        mask = rng.random((count, n)) < 0.3
        X[mask] = rng.choice(special, size=mask.sum())
        edges = rng.random((count, n)) < 0.2
        X[edges] = np.broadcast_to(S.lower, X.shape)[edges]
        assert S.project(X).tobytes() == np.clip(X, S.lower, S.upper).tobytes()
        for x in X:
            assert S.project(x).tobytes() == np.clip(x, S.lower, S.upper).tobytes()


class TestRayRetraction:
    def test_identity_on_feasible(self):
        x = np.array([0.2, 0.2])
        np.testing.assert_array_equal(ray_retraction(UNIT_BOX, [0.5, 0.5], x), x)

    def test_ball_radial_boundary(self):
        y = ray_retraction(UNIT_BALL, np.zeros(2), np.array([2.0, 0.0]))
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-9)

    def test_box_segment_intersection(self):
        # segment from (0.5, 0.5) to (0.5, 2) crosses the top side at (0.5, 1)
        y = ray_retraction(UNIT_BOX, [0.5, 0.5], [0.5, 2.0], tol=1e-12)
        np.testing.assert_allclose(y, [0.5, 1.0], atol=1e-10)

    def test_random_box_segments_match_analytic_intersection(self):
        rng = np.random.default_rng(5)
        anchor = np.array([0.5, 0.5])
        for _ in range(50):
            x = rng.uniform(1.5, 4.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            y = ray_retraction(UNIT_BOX, anchor, x, tol=1e-13)
            seg = x - anchor
            # smallest s with anchor + s*seg on the boundary
            s_candidates = []
            for i in range(2):
                for bound in (0.0, 1.0):
                    if seg[i] != 0.0:
                        s = (bound - anchor[i]) / seg[i]
                        if 0 < s <= 1:
                            point = anchor + s * seg
                            if np.all(point >= -1e-12) and np.all(point <= 1 + 1e-12):
                                s_candidates.append(s)
            expected = anchor + min(s_candidates) * seg
            np.testing.assert_allclose(y, expected, atol=1e-9)

    def test_infeasible_result_is_near_boundary(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            x = rng.uniform(1.2, 5.0, size=2)
            tol = 1e-8
            y = ray_retraction(UNIT_BALL, np.zeros(2), x, tol=tol)
            assert UNIT_BALL.contains(y)
            assert 1.0 - np.linalg.norm(y) <= tol

    def test_degenerate_segment_returns_anchor(self):
        anchor = np.array([0.25, 0.75])
        np.testing.assert_array_equal(ray_retraction(UNIT_BOX, anchor, anchor), anchor)

    def test_tolerance_below_float_resolution_returns_feasible_point(self):
        # the bracket stops shrinking near level 53, long before 2**-k * 3 <= 1e-20
        x = np.array([3.0, 0.3])
        y = ray_retraction(UNIT_BALL, np.zeros(2), x, tol=1e-20)
        assert UNIT_BALL.contains(y)
        np.testing.assert_allclose(y, x / np.linalg.norm(x), atol=1e-12)

    def test_infeasible_anchor_rejected(self):
        with pytest.raises(ValueError):
            ray_retraction(UNIT_BOX, [2.0, 2.0], [0.5, 0.5])


class TestPenalize:
    def test_distance_kind_hand_value(self):
        # f(x) = x_1 on the unit box, M = 1: F2((2, 0.5)) = f(1, 0.5) + 1
        spec = PenaltySpec("distance", M=1.0)
        val = penalize(lambda p: p[0], UNIT_BOX, spec, np.array([2.0, 0.5]))
        assert val == pytest.approx(2.0)

    def test_all_kinds_agree_with_f_on_feasible_points(self):
        rng = np.random.default_rng(7)
        f = lambda p: float(p[0] ** 2 - p[1])
        gs = box_constraints(np.zeros(2), np.ones(2))
        custom = CustomSet(oracle=lambda x: np.clip(x, 0.0, 1.0), inequalities=gs)
        specs = [PenaltySpec("distance", M=3.0),
                 PenaltySpec("constraint-sum", M=3.0),
                 PenaltySpec("ray-retraction", M=3.0, anchor=[0.5, 0.5])]
        for _ in range(20):
            x = rng.uniform(0, 1, size=2)
            for spec in specs:
                target = custom if spec.kind == "constraint-sum" else UNIT_BOX
                assert penalize(f, target, spec, x) == pytest.approx(f(x), abs=1e-12)

    def test_ray_retraction_hand_value(self):
        # f == 0, unit ball, anchor 0, M = 10, x = (2, 0): retraction distance 1
        spec = PenaltySpec("ray-retraction", M=10.0, anchor=np.zeros(2))
        val = penalize(lambda p: 0.0, UNIT_BALL, spec, np.array([2.0, 0.0]))
        assert val == pytest.approx(10.0, abs=1e-8)

    def test_constraint_sum_needs_explicit_constraints(self):
        spec = PenaltySpec("constraint-sum", M=1.0)
        with pytest.raises(ConfigurationError):
            penalize(lambda p: 0.0, UNIT_BOX, spec, np.array([2.0, 0.0]))

    def test_constraint_sum_value(self):
        gs = box_constraints(np.zeros(2), np.ones(2))
        custom = CustomSet(oracle=lambda x: np.clip(x, 0.0, 1.0), inequalities=gs)
        spec = PenaltySpec("constraint-sum", M=2.0)
        # violations: x0 exceeds by 1, x1 below by 0.5
        val = penalize(lambda p: 0.0, custom, spec, np.array([2.0, -0.5]))
        assert val == pytest.approx(2.0 * 1.5)

    def test_never_evaluates_f_outside_the_set(self):
        seen = []

        def f(p):
            seen.append(np.array(p))
            return 0.0

        specs = [PenaltySpec("distance", M=1.0),
                 PenaltySpec("ray-retraction", M=1.0, anchor=np.zeros(2))]
        rng = np.random.default_rng(8)
        for spec in specs:
            for _ in range(20):
                penalize(f, UNIT_BALL, spec, rng.uniform(-4, 4, size=2))
        for p in seen:
            assert UNIT_BALL.contains(p, tol=1e-9)

    def test_dominates_f_of_projection_with_equality_iff_feasible(self):
        rng = np.random.default_rng(9)
        f = lambda p: float(np.sin(p[0]) + p[1])
        gs = box_constraints(np.zeros(2), np.ones(2))
        custom = CustomSet(oracle=lambda x: np.clip(x, 0.0, 1.0), inequalities=gs)
        for spec in (PenaltySpec("distance", M=0.7),
                     PenaltySpec("constraint-sum", M=0.7)):
            for _ in range(50):
                x = rng.uniform(-2, 3, size=2)
                fp = f(custom.project(x))
                val = penalize(f, custom, spec, x)
                assert val >= fp - 1e-12
                if custom.contains(x):
                    assert val == pytest.approx(fp, abs=1e-12)
                else:
                    assert val > fp

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            PenaltySpec("distance", M=0.0)
        with pytest.raises(ValueError):
            PenaltySpec("ray-retraction", M=1.0)  # anchor missing
        with pytest.raises(ValueError):
            PenaltySpec("no-such-kind")


class TestLemmas:
    def test_exactness_small_grid(self):
        # grid argmin of the distance penalty matches the constrained argmin
        # for any multiplier; full 400x400 version lives in the penalty suite
        f = lambda p: float(p[0] - 2 * p[1])
        f_batch = lambda P: P[:, 0] - 2 * P[:, 1]
        ball = Ball(np.array([0.2, -0.1]), 0.8)
        xs = np.linspace(-1.2, 1.6, 101)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        P = np.column_stack([gx.ravel(), gy.ravel()])
        proj = ball.project(P)
        dist = np.linalg.norm(P - proj, axis=1)
        feasible = dist <= 1e-12
        cell = xs[1] - xs[0]
        for M in (0.1, 1.0, 10.0):
            F2 = f_batch(proj) + M * dist
            fvals = np.where(feasible, f_batch(P), np.inf)
            gap = np.abs(P[np.argmin(F2)] - P[np.argmin(fvals)])
            assert np.all(gap <= cell + 1e-12)

    @settings(max_examples=6, deadline=None)
    @given(grid=st.integers(120, 400))
    def test_exactness_checks_pass_on_any_grid(self, grid):
        # near the ball's arc the grid argmins slide with the grid; the minima do not
        checks = validate.exactness_checks(grid=grid)
        assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]

    @pytest.mark.parametrize("grid", [120, 347, 400])
    def test_exactness_fails_without_the_distance_term(self, grid, monkeypatch):
        # f(P x) alone has the minimum value f*, also at points outside the set;
        # the first such grid point lies outside the ball and the polygon (on
        # the l1 box, whose minimizer is a corner of that region, it may not)
        def inexact(f_batch, feasible, spec):
            return lambda X: f_batch(feasible.project(X))

        monkeypatch.setattr(validate, "penalized_batch", inexact)
        failed = {c.name for c in validate.exactness_checks(grid=grid) if not c.passed}
        assert {n for n in failed if "l1 on box" not in n} == {
            f"exactness {name} M={M}" for M in (0.1, 1.0, 10.0)
            for name in ("linear on ball", "piecewise max on box-halfplane")}

    def test_lipschitz_constant_propagates(self):
        # |F2(x) - F2(y)| <= (L + 2M) ||x - y|| for L-Lipschitz f on convex D
        rng = np.random.default_rng(10)
        L, M = math.sqrt(2.0), 5.0
        F2 = penalized_function(lambda p: float(np.abs(p).sum()), UNIT_BALL,
                                PenaltySpec("distance", M=M))
        for _ in range(500):
            x, y = rng.uniform(-4, 4, size=(2, 2))
            gap = abs(F2(x) - F2(y))
            assert gap <= (L + 2 * M) * np.linalg.norm(x - y) + 1e-9


class TestConstraintHelpers:
    def test_box_constraints_sign_convention(self):
        gs = box_constraints([0.0], [1.0])
        assert all(g(np.array([0.5])) <= 0 for g in gs)
        assert any(g(np.array([2.0])) > 0 for g in gs)

    def test_ball_constraint(self):
        g = ball_constraint(np.zeros(2), 1.0)
        assert g(np.array([0.5, 0.0])) <= 0
        assert g(np.array([2.0, 0.0])) == pytest.approx(1.0)

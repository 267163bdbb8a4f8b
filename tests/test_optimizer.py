import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothopt.penalty import Ball, Box, CustomSet
from smoothopt.optimizer import (
    STEP_KINDS,
    Schedule,
    StepRule,
    WidthRule,
    estimate_lipschitz,
    sgd_run,
    rate_bound,
    step_kinds,
)
from smoothopt.smoothing import Kernel


def l1_batch(X):
    return np.abs(np.asarray(X, dtype=float)).sum(axis=-1)


class TestStepRules:
    def test_sphere_fixed_worked_example(self):
        # D = L = n = K = C = 1, T = 4: rho = 1 / sqrt(2*4*2) = 1/4
        rule = StepRule("sphere-fixed", D=1, L=1, n=1, K=1, C=1, T=4)
        assert rule.value(1) == pytest.approx(0.25)
        assert rule.value(4) == pytest.approx(0.25)

    def test_sphere_decaying_worked_example(self):
        # D = L = C = 1, n = 4, K = 1, t = 10: rho = sqrt(4) / sqrt(2*10*(1 + 1/4)) = 2/5;
        # the Gaussian formula would give 1/sqrt(2*10*(1 + 3/1)) = 1/sqrt(80)
        rule = StepRule("sphere-decaying", D=1, L=1, n=4, K=1, C=1)
        assert rule.value(10) == pytest.approx(0.4)

    def test_kind_without_formula_raises(self):
        # A kind in the table without a step formula (a bound only) cannot be
        # built, so it cannot fall through to another kernel's rule.
        assert not callable(STEP_KINDS["sphere-vanishing"].rho)
        with pytest.raises(ValueError, match="unknown step rule 'sphere-vanishing'"):
            StepRule("sphere-vanishing", D=1, L=1, n=2, K=1)

    def test_registry_is_complete(self):
        for kind, entry in STEP_KINDS.items():
            # a step formula and a bound, or the reason there is none
            assert callable(entry.rho) or entry.rho.strip(), kind
            assert callable(entry.bound) or entry.bound.strip(), kind
            if not callable(entry.rho):
                continue
            assert entry.needs and entry.params and entry.modes, kind
            assert set(entry.modes) <= {"plan", "schedule"}, kind
            # the config parameters build a rule that passes its own checks
            step = {name: 0.5 for name, default in entry.params.items() if default is None}
            rule = StepRule.build(dict(step, kind=kind), h=0.5, D=2.0, L=3.0, n=4, K=2, T=10)
            assert rule.kind == kind and rule.value(10) > 0
        # every bound either has its step rule or is listed as unmatched
        unmatched = [kind for kind, entry in STEP_KINDS.items()
                     if callable(entry.bound) and not callable(entry.rho)]
        assert unmatched == ["sphere-vanishing"]
        assert step_kinds() == tuple(k for k in STEP_KINDS if k != "sphere-vanishing")

    def test_build_resolves_auto_and_scales_constant(self):
        rule = StepRule.build({"kind": "sphere-decaying", "D": "auto", "L": 4.0}, h=0.5, D=2.0,
                              L=3.0, n=4, K=2, T=10)
        assert (rule.D, rule.L, rule.C, rule.T) == (2.0, 4.0, 1.0, None)
        rule = StepRule.build({"kind": "constant-scaled", "alpha": 0.3}, h=0.5, D=2.0, L=3.0,
                              n=4, K=2, T=10)
        assert rule.value(7) == 0.3 * 0.5 / 3.0
        with pytest.raises(ValueError, match="needs its parameter 'rho'"):
            StepRule.build({"kind": "constant"}, h=0.5, D=2.0, L=3.0, n=4, K=2, T=10)

    def test_gaussian_fixed_worked_example(self):
        # D = L = 1, n = 3, K = 2, T = 4: rho = 1 / sqrt(2*4*(1 + 2/2)) = 1/4 for every t <= T
        rule = StepRule("gaussian-fixed", D=1, L=1, n=3, K=2, T=4)
        assert [rule.value(t) for t in (1, 2, 4)] == pytest.approx([0.25] * 3, rel=1e-15)

    def test_gaussian_decaying_worked_example(self):
        # D = 3, L = 1, n = 3, K = 1: rho_t = 3 / sqrt(2*t*(1 + 2/1)) = 3 / sqrt(6t),
        # so 1/2 at t = 6 and 1/4 at t = 24
        rule = StepRule("gaussian-decaying", D=3, L=1, n=3, K=1)
        assert rule.value(6) == pytest.approx(0.5, rel=1e-15)
        assert rule.value(24) == pytest.approx(0.25, rel=1e-15)

    def test_gaussian_vanishing_worked_example(self):
        # D = L = 1, n = 1, K = 4, t = 1: rho = 1/sqrt(2), coupled h = rho/4
        sched = Schedule(StepRule("gaussian-vanishing", D=1, L=1, n=1, K=4),
                         WidthRule.coupled(L=1, K=4))
        rho, h = sched.values(1)
        assert rho == pytest.approx(1 / math.sqrt(2))
        assert h == pytest.approx(rho / 4)

    def test_constant(self):
        sched = Schedule(StepRule.constant(0.1), WidthRule.fixed(0.25))
        for t in (1, 5, 1000):
            assert sched.values(t) == (0.1, 0.25)

    def test_fixed_rules_reject_t_beyond_horizon(self):
        rule = StepRule("sphere-fixed", D=1, L=1, n=2, K=1, C=1, T=10)
        with pytest.raises(ValueError):
            rule.value(11)
        rule3 = StepRule("gaussian-fixed", D=1, L=1, n=2, K=1, T=5)
        with pytest.raises(ValueError):
            rule3.value(6)

    def test_positive_and_nonincreasing(self):
        rules = [StepRule("sphere-decaying", D=2, L=3, n=4, K=2, C=1),
                 StepRule("gaussian-decaying", D=2, L=3, n=4, K=2),
                 StepRule("gaussian-vanishing", D=2, L=3, n=4, K=2)]
        for rule in rules:
            values = [rule.value(t) for t in range(1, 200)]
            assert all(v > 0 for v in values)
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_coupled_width_tracks_step(self):
        sched = Schedule(StepRule("sphere-decaying", D=1, L=2, n=3, K=4), WidthRule.coupled(L=2, K=4))
        for t in (1, 7, 50):
            rho, h = sched.values(t)
            assert h == pytest.approx(2 * rho / 4)

    def test_coupled_needs_L_and_K(self):
        with pytest.raises(ValueError, match="needs L and K"):
            WidthRule("coupled", L=2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepRule.constant(-1.0)
        with pytest.raises(ValueError):
            StepRule("sphere-decaying", D=0, L=1, n=1, K=1)
        with pytest.raises(ValueError):
            StepRule("sphere-fixed", D=1, L=1, n=1, K=1, T=None)
        with pytest.raises(ValueError):
            WidthRule.fixed(0.0)


class TestTheoremBound:
    def test_sphere_fixed_worked_example(self):
        # D = L = C = K = n = 1, T = 4: (1/2) * sqrt(2) * sqrt(2) = 1
        assert rate_bound("sphere-fixed", D=1, L=1, n=1, K=1, C=1, t=4) == pytest.approx(1.0)

    def test_gaussian_fixed_worked_example(self):
        # D = L = 1, n = K, T = 2: below sqrt(2)
        for n in (2, 5, 50):
            b = rate_bound("gaussian-fixed", D=1, L=1, n=n, K=n, t=2)
            assert b == pytest.approx(math.sqrt(2 - 1 / n))
            assert b < math.sqrt(2)

    # tail(t) = (2 + ln t) / (sqrt(t) - 1) of the decaying and vanishing bounds
    @pytest.mark.parametrize("which, params, t, expected", [
        # (D*L/sqrt(2)) * sqrt(n/K) * sqrt(C + K/n) * tail: 6/sqrt(2) * 1 * sqrt(2)
        ("sphere-decaying", dict(D=2, L=3, n=3, K=3, C=1), 4, 6 * (2 + math.log(4))),
        # (D*L/2) * sqrt(n/K) * sqrt(2 + C + K/n) * tail: 3 * 1 * sqrt(9)
        ("sphere-vanishing", dict(D=2, L=3, n=3, K=3, C=6), 4, 9 * (2 + math.log(4))),
        # L*D*sqrt(2) * sqrt(1 + (n-1)/K) * tail: 6 * sqrt(2 * 1.5), tail = (2 + ln 9)/2
        ("gaussian-decaying", dict(D=2, L=3, n=5, K=8), 9, 3 * math.sqrt(3) * (2 + math.log(9))),
        # (D*L/2) * sqrt(1 + (n+3)/K) * tail: 3 * sqrt(9), tail = (2 + ln 9)/2
        ("gaussian-vanishing", dict(D=2, L=3, n=5, K=1), 9, 4.5 * (2 + math.log(9))),
    ])
    def test_decaying_and_vanishing_worked_examples(self, which, params, t, expected):
        assert rate_bound(which, t=t, **params) == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(D=st.floats(1e-3, 1e3), L=st.floats(1e-3, 1e3), n=st.integers(1, 10_000),
           K=st.integers(1, 10_000), C=st.floats(1e-3, 1e3), T=st.integers(1, 10 ** 7))
    def test_fixed_step_times_bound_is_d_squared_s_over_t(self, D, L, n, K, C, T):
        # The step rules act on the raw two-point direction.  For the sphere
        # kernel it lacks the factor n of the unbiased gradient, so its step is
        # n times the unbiased-gradient step D / (L * sqrt(T) * sqrt(2n/K * (C + K/n)))
        # that inverts the bound: rho * bound = D^2 * s(n) / T, s(n) = n.  The
        # Gaussian direction is already unbiased: s(n) = 1.
        kinds = [kind for kind, entry in STEP_KINDS.items() if "T" in entry.needs]
        assert kinds
        for kind in kinds:
            s_n = {"sphere": n, "gaussian": 1}[kind.split("-")[0]]
            rho = StepRule(kind, D=D, L=L, n=n, K=K, C=C, T=T).value(T)
            bound = rate_bound(kind, D=D, L=L, n=n, K=K, C=C, t=T)
            assert rho * bound == pytest.approx(D ** 2 * s_n / T, rel=1e-12)

    def test_decreasing_in_horizon(self):
        for which in ("sphere-fixed", "gaussian-fixed"):
            values = [rate_bound(which, D=1, L=1, n=4, K=2, C=1, t=t)
                      for t in (2, 10, 100, 10_000)]
            assert all(b < a for a, b in zip(values, values[1:]))
        for which in ("sphere-decaying", "sphere-vanishing", "gaussian-decaying", "gaussian-vanishing"):
            values = [rate_bound(which, D=1, L=1, n=4, K=2, C=1, t=t)
                      for t in (10, 100, 10_000)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_decaying_undefined_at_t_1(self):
        for which in ("sphere-decaying", "sphere-vanishing", "gaussian-decaying", "gaussian-vanishing"):
            with pytest.raises(ValueError):
                rate_bound(which, D=1, L=1, n=1, K=1, C=1, t=1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rate_bound("no-such-bound", D=1, L=1, n=1, K=1, C=1, t=2)
        with pytest.raises(ValueError):
            rate_bound("sphere-fixed", D=-1, L=1, n=1, K=1, C=1, t=2)


class TestSgdRun:
    def test_constant_objective_keeps_iterates_fixed(self):
        X = Box(-np.ones(2), np.ones(2))
        x1 = np.array([0.3, -0.4])
        sched = Schedule(StepRule.constant(0.5), WidthRule.fixed(0.1))
        rec = sgd_run(lambda X: np.full(len(X), 7.0), X, x1, sched, "sphere", 2, 50, rng=0)
        np.testing.assert_array_equal(rec.x_last, x1)
        np.testing.assert_allclose(rec.plain_average, x1, atol=1e-15)
        np.testing.assert_allclose(rec.weighted_average, x1, atol=1e-15)

    def test_single_step_is_projected_update(self):
        # one step with a known direction: x2 = clamp(x1 - rho * eta)
        X = Box(np.zeros(1), np.ones(1))
        x1 = np.array([0.5])
        rho, h = 2.0, 0.25
        sched = Schedule(StepRule.constant(rho), WidthRule.fixed(h))
        f = lambda X: 3.0 * X[:, 0]
        rng = np.random.default_rng(1)
        rec = sgd_run(f, X, x1, sched, "sphere", 1, 1, rng)
        # 1-D sphere direction: eta = 3 exactly regardless of the sign drawn
        np.testing.assert_allclose(rec.x_last, [0.0])  # clamp(0.5 - 2*3)

    def test_iterates_stay_in_projection_set(self):
        returned = []

        class RecordingBall(Ball):
            """The unit ball, keeping every point its projection returns."""

            def project(self, x):
                p = super().project(x)
                returned.append(p)
                return p

        X = RecordingBall(np.zeros(4), 1.0)
        sched = Schedule(StepRule("sphere-decaying", D=2, L=2, n=4, K=2), WidthRule.fixed(0.2))
        rng = np.random.default_rng(2)
        rec = sgd_run(l1_batch, X, X.sample(1, rng)[0], sched, "sphere", 2, 300, rng)
        # the start check projects x_1; then one projection per iteration
        # returns x_2..x_301, the last of them x_last
        assert len(returned) == 301
        np.testing.assert_array_equal(returned[0][0], rec.x_first)
        np.testing.assert_array_equal(returned[-1][0], rec.x_last)
        iterates = np.concatenate(returned)
        assert np.all(np.linalg.norm(iterates, axis=1) <= 1.0 + 1e-9)

    def test_start_outside_x_rejected(self):
        X = Box(np.zeros(2), np.ones(2))
        sched = Schedule(StepRule.constant(0.1), WidthRule.fixed(0.1))
        with pytest.raises(ValueError):
            sgd_run(lambda X: np.zeros(len(X)), X, np.array([2.0, 0.0]), sched, "sphere", 1, 1,
                    rng=0)

    @pytest.mark.parametrize("X", [
        Box(np.zeros(2), np.ones(2)), Ball(np.array([0.0, 0.5]), 1.0),
        CustomSet(oracle=Ball(np.array([0.0, 0.5]), 1.0).project,
                  bounds=(np.array([-1.0, -0.5]), np.array([1.0, 1.5])))],
        ids=["box", "ball", "custom"])
    def test_start_is_checked_by_its_projection_residual(self, X):
        # a start may lie outside X by up to ITERATE_TOL = 1e-9, in every run
        sched = Schedule(StepRule.constant(0.1), WidthRule.fixed(0.1))
        edge = np.array([1.0, 0.5])  # on the boundary of each set
        near, far = edge + [5e-10, 0.0], edge + [2e-9, 0.0]
        sgd_run(l1_batch, X, np.array([near, edge]), sched, "sphere", 1, 1, [0, 1])
        with pytest.raises(ValueError, match="projection set"):
            sgd_run(l1_batch, X, np.array([edge, far]), sched, "sphere", 1, 1, [0, 1])

    def test_kernel_object_rejected_naming_its_width(self):
        # the schedule sets every width, so a Kernel's own would be ignored
        X = Box(np.zeros(2), np.ones(2))
        sched = Schedule(StepRule.constant(0.1), WidthRule.fixed(0.1))
        with pytest.raises(TypeError, match="h = 0.7"):
            sgd_run(l1_batch, X, np.full(2, 0.5), sched, Kernel.gaussian(0.7), 1, 1, rng=0)

    def test_evaluation_accounting(self):
        calls = 0

        def f(Z):
            nonlocal calls
            calls += len(Z)
            return l1_batch(Z)

        X = Box(-np.ones(2), np.ones(2))
        sched = Schedule(StepRule.constant(0.05), WidthRule.fixed(0.1))
        rec = sgd_run(f, X, np.zeros(2), sched, "gaussian", 3, 17, rng=3)
        assert rec.evaluations == 2 * 3 * 17
        assert calls == rec.evaluations

    def test_seed_determinism(self):
        X = Ball(np.zeros(3), 1.0)
        sched = Schedule(StepRule("gaussian-decaying", D=2, L=2, n=3, K=2), WidthRule.fixed(0.1))
        a = sgd_run(l1_batch, X, np.zeros(3), sched, "gaussian", 2, 100, rng=77)
        b = sgd_run(l1_batch, X, np.zeros(3), sched, "gaussian", 2, 100, rng=77)
        np.testing.assert_array_equal(a.x_last, b.x_last)
        np.testing.assert_array_equal(a.weighted_average, b.weighted_average)
        np.testing.assert_array_equal(a.best_point, b.best_point)
        assert a.best_value == b.best_value
        assert a.seed == 77

    def test_constant_steps_make_weighted_equal_plain_average(self):
        X = Box(-np.ones(2), np.ones(2))
        sched = Schedule(StepRule.constant(0.02), WidthRule.fixed(0.1))
        rec = sgd_run(l1_batch, X, np.array([0.5, -0.5]), sched, "sphere", 1, 200, rng=4)
        np.testing.assert_allclose(rec.weighted_average, rec.plain_average,
                                   rtol=0, atol=1e-12)

    def test_best_value_is_min_over_probes(self):
        X = Box(-np.ones(2), np.ones(2))
        sched = Schedule(StepRule.constant(0.05), WidthRule.fixed(0.2))
        seen = []

        def f(Z):
            v = l1_batch(Z)
            seen.extend(v)
            return v

        rec = sgd_run(f, X, np.array([0.8, 0.8]), sched, "sphere", 2, 100, rng=5)
        assert rec.best_value == min(seen)

    def test_descends_on_l1_ball(self):
        n, K, T = 10, 8, 3000
        X = Ball(np.zeros(n), 1.0)
        sched = Schedule(StepRule("sphere-decaying", D=2.0, L=math.sqrt(n), n=n, K=K, C=1.0),
                         WidthRule.fixed(0.1))
        rng = np.random.default_rng(6)
        x1 = X.sample(1, rng)[0]
        rec = sgd_run(l1_batch, X, x1, sched, "sphere", K, T, rng)
        assert l1_batch(rec.weighted_average) <= 0.5  # true minimum is 0

    def test_evaluation_error_carries_iteration(self):
        X = Box(-np.ones(1), np.ones(1))
        sched = Schedule(StepRule.constant(0.5), WidthRule.fixed(0.3))
        calls = 0

        def f(Z):
            nonlocal calls
            rows = calls + np.arange(1, len(Z) + 1)  # 1-based index of each row
            calls += len(Z)
            return np.where(rows > 10, np.inf, 0.0)

        from smoothopt.smoothing import EvaluationError
        with pytest.raises(EvaluationError) as err:
            sgd_run(f, X, np.zeros(1), sched, "gaussian", 2, 100, rng=8)
        assert err.value.iteration == 3  # 4 rows per iteration, the 11th row fails


class TestEstimateLipschitz:
    def test_linear_function_recovers_constant(self):
        c = np.array([3.0, -4.0])  # ||c|| = 5
        X = Box(-np.ones(2), np.ones(2))
        L = estimate_lipschitz(lambda P: np.asarray(P) @ c, X, scale=0.1, rng=0)
        assert L == pytest.approx(1.5 * 5.0, rel=0.05)

    def test_no_samples_rejected_before_any_evaluation(self):
        rows = []
        with pytest.raises(ValueError, match="samples"):
            estimate_lipschitz(lambda P: rows.append(len(P)) or l1_batch(P),
                               Box(-np.ones(2), np.ones(2)), scale=0.1, rng=0, samples=0)
        assert rows == []

    def test_safety_factor(self):
        X = Box(np.zeros(1), np.ones(1))
        f = lambda P: np.asarray(P)[..., 0]
        base = estimate_lipschitz(f, X, scale=0.05, rng=1, safety=1.0)
        padded = estimate_lipschitz(f, X, scale=0.05, rng=1)
        assert padded == pytest.approx(1.5 * base)

    def test_error_names_the_non_finite_probe(self):
        # only the minus probes are bad: the error carries the first of them
        X = Box(-np.ones(2), np.ones(2))
        seen = []

        def f(Z):
            seen.extend(np.array(Z))
            return np.where(np.arange(len(Z)) >= 5, np.nan, l1_batch(Z))

        from smoothopt.smoothing import EvaluationError
        with pytest.raises(EvaluationError) as err:
            estimate_lipschitz(f, X, scale=0.1, rng=0, samples=5)
        assert len(seen) == 10  # plus points first, then minus points
        assert np.isnan(err.value.value)
        np.testing.assert_array_equal(err.value.point, seen[5])

    def test_equals_separate_plus_and_minus_evaluation(self):
        from smoothopt.problems import make_problem
        from smoothopt.smoothing import Kernel

        problem = make_problem("polygon", n=4)
        X, f, scale = problem.domain, problem.objective_batch, 0.3
        L = estimate_lipschitz(f, X, scale, rng=2)
        gen = np.random.default_rng(2)
        pts = X.sample(1000, gen)
        dirs = Kernel.sphere(scale).sample_directions(pts.shape[1], 1000, gen)
        quotients = np.abs(f(pts + scale * dirs) - f(pts - scale * dirs)) / (2.0 * scale)
        assert L == 1.5 * float(quotients.max())

import numpy as np
import pytest

from smoothopt.continuation import (
    SmoothingPlan,
    default_plan,
    geometric_widths,
    ravine_start,
    successive_smoothing,
)
from smoothopt.optimizer import Schedule, StepRule, WidthRule, sgd_run
from smoothopt.penalty import Box
from smoothopt.smoothing import Kernel


X2 = Box(np.array([-5.0, -5.0]), np.array([5.0, 5.0]))


def l1_batch(Z):
    return np.abs(np.asarray(Z, dtype=float)).sum(axis=-1)


class TestRavineStart:
    def test_beta_zero_returns_current(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(ravine_start([0.0, 0.0], x, 0.0, X2), x)

    def test_equal_points_fixed_for_any_beta(self):
        x = np.array([1.5, -0.5])
        for beta in (0.0, 0.5, 1.0, 3.0):
            np.testing.assert_array_equal(ravine_start(x, x, beta, X2), x)

    def test_full_extrapolation(self):
        out = ravine_start([0.0, 0.0], [1.0, 0.0], 1.0, X2)
        np.testing.assert_allclose(out, [2.0, 0.0])

    def test_projected_back_into_x(self):
        out = ravine_start([0.0, 0.0], [4.0, 0.0], 2.0, X2)
        np.testing.assert_allclose(out, [5.0, 0.0])

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            ravine_start([0.0], [1.0], -0.5, Box(np.array([-1.0]), np.array([1.0])))


class TestSmoothingPlan:
    def test_geometric_widths(self):
        w = geometric_widths(2.0, 4, 0.5)
        assert w == (2.0, 1.0, 0.5, 0.25)

    def test_widths_must_decrease(self):
        with pytest.raises(ValueError):
            SmoothingPlan(widths=(1.0, 1.0), steps=(StepRule.constant(0.1),),
                          iterations=10, batch_size=1)

    def test_single_step_rule_broadcasts(self):
        plan = SmoothingPlan(widths=(1.0, 0.5, 0.25), steps=(StepRule.constant(0.1),),
                             iterations=10, batch_size=1)
        assert len(plan.steps) == 3

    def test_stage_schedule_uses_planned_width(self):
        plan = SmoothingPlan(widths=(1.0, 0.5), steps=(StepRule.constant(0.1),),
                             iterations=5, batch_size=1)
        for s, h in enumerate(plan.widths):
            sched = plan.schedule(s)
            assert sched.width.kind == "fixed"
            assert sched.values(3) == (0.1, h)

    def test_default_plan_spans_three_decades(self):
        plan = default_plan(X2, iterations=10, batch_size=2, L=1.0)
        assert plan.stages == 11
        assert plan.widths[-1] / plan.widths[0] == pytest.approx(2.0 ** -10)
        lower, upper = X2.bounding_box()
        assert plan.widths[0] == pytest.approx(0.5 * float(np.linalg.norm(upper - lower)))


def test_package_quick_start_runs(capsys):
    import textwrap
    import smoothopt
    # the indented block after "Quick start::", up to the next paragraph
    block = smoothopt.__doc__.split("Quick start::")[1].split("\n\nEvery objective")[0]
    exec(textwrap.dedent(block), {})
    assert capsys.readouterr().out.startswith("area: ")


class TestSuccessiveSmoothing:
    def _plan(self, widths=(1.0, 0.5, 0.25), T=40, K=1, beta=1.0):
        steps = tuple(StepRule.constant(0.02 * h) for h in widths)
        return SmoothingPlan(widths=widths, steps=steps, iterations=T,
                             batch_size=K, ravine_beta=beta)

    def test_single_stage_plan_matches_sgd_run(self):
        plan = SmoothingPlan(widths=(0.5,), steps=(StepRule.constant(0.05),),
                             iterations=60, batch_size=2)
        x0 = np.array([2.0, -1.0])
        res = successive_smoothing(l1_batch, X2, plan, "sphere", x0,
                                   np.random.default_rng(3))
        rec = sgd_run(l1_batch, X2, x0, Schedule(plan.steps[0], WidthRule.fixed(0.5)),
                      "sphere", 2, 60, np.random.default_rng(3))
        assert res.best_value == rec.best_value
        np.testing.assert_array_equal(res.stages[0].weighted_average, rec.weighted_average)
        assert res.evaluations == rec.evaluations

    def test_coupled_one_stage_plan_matches_sgd_run_and_names_no_width(self):
        coupled = WidthRule.coupled(L=2.0, K=2)
        plan = SmoothingPlan(widths=(None,), steps=(StepRule("sphere-decaying", D=4, L=3, n=2, K=2),),
                             iterations=50, batch_size=2, width_rule=coupled)
        x0 = np.array([2.0, -1.0])
        res = successive_smoothing(l1_batch, X2, plan, "gaussian", x0, np.random.default_rng(3))
        rec = sgd_run(l1_batch, X2, x0, Schedule(plan.steps[0], coupled), "gaussian", 2, 50,
                      np.random.default_rng(3))
        assert res.best_value == rec.best_value and plan.widths == (None,)
        np.testing.assert_array_equal(res.stages[0].weighted_average, rec.weighted_average)
        with pytest.raises(TypeError):  # an unnamed width needs a width rule
            SmoothingPlan(widths=(None,), steps=plan.steps, iterations=50, batch_size=2)

    def test_kernel_object_rejected(self):
        plan = self._plan()
        with pytest.raises(TypeError, match="h = 0.25"):
            successive_smoothing(l1_batch, X2, plan, Kernel.sphere(0.25), np.zeros(2), 0)

    def test_beta_zero_chains_returned_points_exactly(self):
        plan = self._plan(beta=0.0)
        res = successive_smoothing(l1_batch, X2, plan, "sphere", np.array([3.0, 3.0]),
                                   np.random.default_rng(4))
        for prev, cur in zip(res.stages, res.stages[1:]):
            np.testing.assert_array_equal(cur.x_first, prev.weighted_average)

    def test_stage_one_starts_from_stage_zero_for_any_beta(self):
        plan = self._plan(beta=1.0)
        res = successive_smoothing(l1_batch, X2, plan, "sphere", np.array([3.0, 3.0]),
                                   np.random.default_rng(5))
        np.testing.assert_array_equal(res.stages[1].x_first, res.stages[0].weighted_average)

    def test_later_stages_use_ravine_extrapolation(self):
        plan = self._plan(beta=0.7)
        res = successive_smoothing(l1_batch, X2, plan, "sphere", np.array([3.0, 3.0]),
                                   np.random.default_rng(6))
        a = res.stages[0].weighted_average
        b = res.stages[1].weighted_average
        np.testing.assert_array_equal(res.stages[2].x_first,
                                      X2.project(b + 0.7 * (b - a)))

    def test_best_is_the_first_minimum_over_stages(self):
        plan = self._plan(widths=(2.0, 1.0, 0.5, 0.25), T=30)
        res = successive_smoothing(l1_batch, X2, plan, "gaussian", np.array([4.0, -4.0]),
                                   np.random.default_rng(7))
        values = [s.best_value for s in res.stages]
        first = values.index(min(values))
        assert res.best_value == values[first]
        np.testing.assert_array_equal(res.best_point, res.stages[first].best_point)

    def test_evaluation_accounting(self):
        plan = self._plan(widths=(1.0, 0.5), T=25, K=3)
        res = successive_smoothing(l1_batch, X2, plan, "sphere", np.zeros(2),
                                   np.random.default_rng(9))
        assert res.evaluations == 2 * 3 * 25 * 2

    def test_seed_determinism(self):
        plan = self._plan()
        runs = [successive_smoothing(l1_batch, X2, plan, "gaussian", np.array([2.0, 2.0]),
                                     np.random.default_rng(10))
                for _ in range(2)]
        assert runs[0].best_value == runs[1].best_value
        np.testing.assert_array_equal(runs[0].best_point, runs[1].best_point)

    def test_stage_error_carries_stage_index(self):
        from smoothopt.smoothing import EvaluationError

        rows = 0

        def f(Z):
            nonlocal rows
            rows += len(Z)
            out = np.abs(np.asarray(Z)).sum(axis=-1)
            if rows > 90:  # fail some way into the second stage
                out = out * np.nan
            return out

        plan = self._plan(widths=(1.0, 0.5), T=40)
        with pytest.raises(EvaluationError) as err:
            successive_smoothing(f, X2, plan, "sphere", np.zeros(2),
                                 np.random.default_rng(11))
        assert err.value.stage == 1
        assert err.value.iteration is not None

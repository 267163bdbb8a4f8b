"""Lockstep runs: S runs in one batch reproduce S runs alone, bit for bit."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothopt.continuation import SmoothingPlan, successive_smoothing
from smoothopt.harness import validate
from smoothopt.optimizer import Schedule, StepRule, WidthRule, sgd_run
from smoothopt.penalty import Ball, Box
from smoothopt.problems import PolygonProblem, calibration
from smoothopt.smoothing import EvaluationError, Kernel, smoothed_value
from test_direction_draws import loop_sgd_run

SEEDS = st.integers(0, 2 ** 32 - 1)


def same(a, b) -> bool:
    """Bit-identical: equal shape and equal bytes (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def problem(n: int, shape: str):
    """A nonsmooth objective whose minimum lies outside the set, so projection acts."""
    c = np.linspace(-1.4, 1.4, n) if n > 1 else np.array([1.4])

    def batch(Z):
        return np.abs(np.asarray(Z) - c).sum(axis=-1)

    X = Box(-np.ones(n), np.ones(n)) if shape == "box" else Ball(np.zeros(n), 1.0)
    return batch, X


def assert_same_record(a, b):
    for name in ("x_first", "x_last", "plain_average", "weighted_average", "best_point",
                 "best_value"):
        assert same(getattr(a, name), getattr(b, name)), name
    assert (a.evaluations, a.iterations, a.seed) == (b.evaluations, b.iterations, b.seed)


RUNS = dict(S=st.integers(1, 4), n=st.integers(1, 4), K=st.integers(1, 5),
            kernel=st.sampled_from(["sphere", "gaussian"]),
            shape=st.sampled_from(["box", "ball"]), seed=SEEDS)


@settings(max_examples=40, deadline=None)
@given(**RUNS)
def test_lockstep_sgd_run_equals_single_runs(S, n, K, kernel, shape, seed):
    F, X = problem(n, shape)
    starts = X.sample(S, np.random.default_rng(seed))
    seeds = [seed + s for s in range(S)]
    sched = Schedule(StepRule.constant(0.4), WidthRule.fixed(0.3))
    batch = sgd_run(F, X, starts, sched, kernel, K, 12, seeds)
    assert batch.best_value.shape == (S,)
    for s in range(S):
        alone = sgd_run(F, X, starts[s], sched, kernel, K, 12, seeds[s])
        assert_same_record(batch.run(s), alone)


@settings(max_examples=30, deadline=None)
@given(**RUNS)
def test_lockstep_smoothing_equals_single_runs(S, n, K, kernel, shape, seed):
    F, X = problem(n, shape)
    starts = X.sample(S, np.random.default_rng(seed))
    widths = (0.8, 0.4, 0.2)
    plan = SmoothingPlan(widths=widths, steps=tuple(StepRule.constant(0.5 * h) for h in widths),
                         iterations=6, batch_size=K, ravine_beta=1.5)
    gens = [np.random.default_rng(seed + s) for s in range(S)]
    batch = successive_smoothing(F, X, plan, kernel, starts, gens)
    for s in range(S):
        alone = successive_smoothing(F, X, plan, kernel, starts[s], seed + s)
        mine = batch.run(s)
        assert same(mine.best_point, alone.best_point)
        assert same(mine.best_value, alone.best_value)
        assert mine.evaluations == alone.evaluations
        for a, b in zip(mine.stages, alone.stages, strict=True):
            assert_same_record(a, b)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 4, 20]), rows=st.integers(1, 64), seed=SEEDS)
def test_polygon_rows_do_not_depend_on_their_batch(n, rows, seed):
    poly = PolygonProblem(n)
    rng = np.random.default_rng(seed)
    lower, upper = poly.projection_set(1.0).bounding_box()
    Z = poly.embed(rng.uniform(lower, upper, size=(rows, poly.dimension)))
    whole = poly.penalized_batch(Z)
    for i in range(rows):
        assert same(poly.penalized_batch(Z[i:i + 1]), whole[i:i + 1])
    order = rng.permutation(rows)
    assert same(poly.penalized_batch(Z[order]), whole[order])
    cut = int(rng.integers(0, rows + 1))
    parts = [poly.penalized_batch(Z[order][:cut]), poly.penalized_batch(Z[order][cut:])]
    assert same(np.concatenate(parts), whole[order])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), rows=st.integers(1, 16), seed=SEEDS)
def test_ball_projection_rows_match_single_points(n, rows, seed):
    rng = np.random.default_rng(seed)
    center = rng.uniform(-3.0, 3.0, n)
    X = Ball(center, float(np.linalg.norm(center)) + rng.uniform(0.1, 1.0))
    # points near the origin: x - center is inexact, so interior points only
    # come back bit for bit if they are returned, not rebuilt from the center
    P = rng.uniform(-1.5, 1.5, size=(rows, n))
    out = X.project(P)
    for i in range(rows):
        assert same(out[i], X.project(P[i]))
        if np.linalg.norm(P[i] - X.center) <= X.radius:
            assert same(out[i], P[i])  # interior points come back unchanged


@settings(max_examples=40, deadline=None)
@given(S=st.integers(2, 4), K=st.integers(1, 3), data=st.data())
def test_lockstep_error_names_run_stage_and_iteration(S, K, data):
    T, stages = 4, 3
    per_call = S * 2 * K
    bad = data.draw(st.integers(0, stages * T * per_call - 1), label="bad evaluation")
    seen = 0

    def batch(Z):
        nonlocal seen
        out = np.abs(np.asarray(Z)).sum(axis=-1)
        lo, seen = seen, seen + len(out)
        if lo <= bad < seen:
            out[bad - lo] = np.nan
        return out

    X = Box(-np.ones(2), np.ones(2))
    widths = (0.5, 0.25, 0.125)
    plan = SmoothingPlan(widths=widths, steps=(StepRule.constant(0.05),), iterations=T,
                         batch_size=K)
    starts = X.sample(S, np.random.default_rng(0))
    with pytest.raises(EvaluationError) as err:
        successive_smoothing(batch, X, plan, "sphere", starts, list(range(S)))
    call, row = divmod(bad, per_call)
    assert err.value.run == row // (2 * K)
    assert err.value.stage == call // T
    assert err.value.iteration == call % T + 1
    assert np.isnan(err.value.value)


@pytest.mark.parametrize("rng", [[0, 1], 0, np.random.default_rng(0)])
def test_lockstep_needs_one_rng_per_start(rng):
    X = Box(-np.ones(2), np.ones(2))
    sched = Schedule(StepRule.constant(0.1), WidthRule.fixed(0.1))
    with pytest.raises(ValueError, match="one rng per start"):
        sgd_run(lambda Z: np.zeros(len(Z)), X, np.zeros((3, 2)), sched, "sphere", 1, 1, rng)


@pytest.mark.parametrize("rng", [0, np.random.default_rng(0)])
def test_lockstep_smoothing_needs_one_rng_per_start(rng):
    calls = []

    def F(Z):
        calls.append(len(Z))
        return np.zeros(len(Z))

    X = Box(-np.ones(2), np.ones(2))
    plan = SmoothingPlan(widths=(0.5, 0.25), steps=(StepRule.constant(0.1),), iterations=2,
                         batch_size=1)
    with pytest.raises(ValueError, match="one rng per start"):
        successive_smoothing(F, X, plan, "sphere", np.zeros((3, 2)), rng)
    assert calls == []


def trajectory_rate_gaps(*, n, K, h, D, C, checkpoints, seeds, eval_samples, master_seed):
    """The rate suite's gaps as its loop took them from recorded iterates, in call order.

    One run per seed to the last checkpoint, one seed after another; each
    checkpoint average is summed from that run's iterates, and the ``F_h``
    draws continue the seed's generator after its run.
    """
    f = calibration("l1-norm", n).batch
    X = Ball(np.zeros(n), 1.0)
    step = StepRule("sphere-decaying", D=D, L=math.sqrt(n), n=n, K=K, C=C)
    schedule = Schedule(step, WidthRule.fixed(h))
    kernel = Kernel.sphere(h)
    root = np.random.SeedSequence(master_seed)
    ref, _ = smoothed_value(f, np.zeros(n), kernel, eval_samples,
                            np.random.default_rng(root.spawn(1)[0]))
    T = max(checkpoints)
    rho = step.value(np.arange(1, T + 1))
    gaps = []
    for ss in root.spawn(seeds):
        child = np.random.default_rng(ss)
        x1 = X.sample(1, child)[0]
        iterates = []
        loop_sgd_run(f, X, x1, schedule, "sphere", K, T, child, iterates=iterates)
        csum = np.cumsum(rho[:, None] * np.array(iterates)[:, 0], axis=0)
        rsum = np.cumsum(rho)
        for t in checkpoints:
            val, _ = smoothed_value(f, csum[t - 1] / rsum[t - 1], kernel, eval_samples, child)
            gaps.append(val - ref)
    return gaps


def test_rate_suite_equals_the_trajectory_loop(monkeypatch):
    # unsorted checkpoints: the F_h draws follow their order, the runs their lengths
    kw = dict(n=4, K=2, h=0.1, D=2.0, C=1.0, checkpoints=(9, 3, 40, 17), seeds=3,
              eval_samples=500, master_seed=11)
    values = []

    def recorded(*args):
        val = smoothed_value(*args)
        values.append(val[0])
        return val

    monkeypatch.setattr(validate, "smoothed_value", recorded)
    checks = validate.rate_suite(**kw)
    gaps = [v - values[0] for v in values[1:]]
    want = trajectory_rate_gaps(**kw)
    assert [g.hex() for g in gaps] == [g.hex() for g in want]
    per_seed = np.array(want).reshape(kw["seeds"], -1)
    for column, check in zip(per_seed.T, checks, strict=True):
        assert check.measured.hex() == float(np.median(column)).hex()

"""Chunked direction draws: ``sgd_run`` equals the per-iteration draw loop bit for bit."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothopt import continuation, optimizer
from smoothopt.continuation import SmoothingPlan, successive_smoothing
from smoothopt.optimizer import RunRecord, StepRule, sgd_run
from smoothopt.penalty import Box
from smoothopt.problems import calibration
from smoothopt.smoothing import Kernel, _row_sum, grad_estimate, second_moment_check


def same(a, b) -> bool:
    """Bit-identical: equal shape and equal bytes (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def loop_sgd_run(F, X, x1, rhos, widths, kernel, K, rng, *, iterates=None):
    """``sgd_run`` with one direction draw per run and iteration, as before chunking.

    Takes a batch objective and the same arguments as ``sgd_run``.  A list
    ``iterates`` receives every iterate ``x_1..x_T`` as an ``(S, n)`` array.
    """
    x = np.array(x1, dtype=float)
    single = x.ndim == 1
    if single:
        x, rng = x[None], (rng,)
    gens, seeds = zip(*map(optimizer._as_rng, rng))
    S, dim = x.shape
    T, hs = len(rhos), np.broadcast_to(widths, np.shape(rhos))
    sum_x, sum_rho_x, sum_rho = np.zeros((S, dim)), np.zeros((S, dim)), 0.0
    best_value, best_point, x_first = np.full(S, np.inf), x.copy(), x.copy()
    for rho, h in zip(rhos, hs):
        if iterates is not None:
            iterates.append(x)
        sum_x += x
        sum_rho_x += rho * x
        sum_rho += rho
        kern = Kernel(kernel, h)
        Y = np.array([kern.sample_directions(dim, K, g) for g in gens])
        hY = h * Y
        P = np.concatenate([x[:, None, :] + hY, x[:, None, :] - hY], axis=1)
        f = np.asarray(F(P.reshape(-1, dim)), dtype=float).reshape(S, 2 * K)
        value = f.min(axis=1)
        better = value < best_value
        if better.any():
            best_value[better] = value[better]
            best_point[better] = P[better, f[better].argmin(axis=1)]
        quotients = (f[:, :K] - f[:, K:]) / (2.0 * h)
        eta = (quotients[:, :, None] * Y).sum(axis=1) / K
        x = X.project(x - rho * eta)
    record = RunRecord(x_first=x_first, x_last=x, plain_average=sum_x / T,
                       weighted_average=sum_rho_x / sum_rho, best_point=best_point,
                       best_value=best_value, evaluations=2 * K * T, iterations=T,
                       seed=seeds, wall_time=0.0)
    return record.run(0) if single else record


def problem(n: int):
    """A nonsmooth objective whose minimum lies outside the box, so projection acts."""
    c = np.linspace(-1.4, 1.4, n) if n > 1 else np.array([1.4])
    return (lambda Z: np.abs(Z - c).sum(axis=-1)), Box(-np.ones(n), np.ones(n))


def plateau_problem(n: int):
    """Integer plateaus of the l1 distance to a point in the box.

    Probe values tie within an iteration, across iterations and across
    chunks, and the zero plateau reads -0.0 on one side of a hyperplane
    and 0.0 on the other, so the best probe's tie rule and the sign of its
    value both show.
    """
    c = np.linspace(-0.5, 0.5, n)

    def F(Z):
        v = np.floor(2.0 * np.abs(Z - c).sum(axis=-1))
        return np.where(v == 0.0, np.copysign(0.0, Z[:, 0] - c[0]), v)

    return F, Box(-np.ones(n), np.ones(n))


def assert_same_record(a, b):
    for name in ("x_first", "x_last", "plain_average", "weighted_average", "best_point",
                 "best_value"):
        assert same(getattr(a, name), getattr(b, name)), name
    assert (a.evaluations, a.iterations, a.seed) == (b.evaluations, b.iterations, b.seed)


def states(gens):
    return [g.bit_generator.state for g in gens]


DRAWS = dict(S=st.integers(1, 4), K=st.integers(1, 12), n=st.integers(1, 40),
             T=st.integers(1, 15), draw_rows=st.integers(1, 40),
             kernel=st.sampled_from(["sphere", "gaussian"]),
             seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@given(**DRAWS, kind=st.sampled_from(["constant", "sphere-fixed", "sphere-decaying",
                                     "gaussian-fixed", "gaussian-decaying",
                                     "gaussian-vanishing"]),
       coupled=st.booleans(), plateau=st.booleans())
# one run in one dimension over a long chunk: summing a single column over t
# must stay the loop's left-to-right adds, not numpy's pairwise sum
@example(S=1, K=1, n=1, T=200, draw_rows=4096, kernel="gaussian", seed=3, kind="constant",
         coupled=False, plateau=False)
def test_chunked_sgd_run_equals_per_iteration_loop(S, K, n, T, draw_rows, kernel, seed,
                                                   kind, coupled, plateau):
    # sgd_run also evaluates rho_t and h_t for the whole run at once, sums the
    # iterates and picks the best probe once per chunk; the loop does each
    # every iteration
    F, X = (plateau_problem if plateau else problem)(n)
    starts = X.sample(S, np.random.default_rng(seed))
    step = (StepRule.constant(0.4) if kind == "constant" else
            StepRule(kind, D=2.0, L=3.0, n=n, K=K, C=1.5,
                     T=T if kind.endswith("-fixed") else None))
    rho = step.value(np.arange(1, T + 1))
    h = 3.0 * rho / K if coupled else 0.3
    ours = [np.random.default_rng(seed + s) for s in range(S)]
    loop = [np.random.default_rng(seed + s) for s in range(S)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_DRAW_ROWS", draw_rows)
        got = sgd_run(F, X, starts, rho, h, kernel, K, ours)
    want = loop_sgd_run(F, X, starts, rho, h, kernel, K, loop)
    assert_same_record(got, want)
    assert states(ours) == states(loop)
    # the generator goes on exactly where the loop's does
    assert same(ours[-1].standard_normal(3), loop[-1].standard_normal(3))


@settings(max_examples=40, deadline=None)
@given(**DRAWS)
def test_chunked_smoothing_equals_per_iteration_loop(S, K, n, T, draw_rows, kernel, seed):
    F, X = problem(n)
    starts = X.sample(S, np.random.default_rng(seed))
    widths = (0.8, 0.4, 0.2)
    plan = SmoothingPlan(widths=widths, steps=tuple(StepRule.constant(0.5 * h) for h in widths),
                         iterations=T, batch_size=K, ravine_beta=1.5)
    ours = [np.random.default_rng(seed + s) for s in range(S)]
    loop = [np.random.default_rng(seed + s) for s in range(S)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_DRAW_ROWS", draw_rows)
        got = successive_smoothing(F, X, plan, kernel, starts, ours)
        mp.setattr(continuation, "sgd_run", loop_sgd_run)
        want = successive_smoothing(F, X, plan, kernel, starts, loop)
    assert same(got.best_point, want.best_point)
    assert same(got.best_value, want.best_value)
    assert got.evaluations == want.evaluations
    for a, b in zip(got.stages, want.stages, strict=True):
        assert_same_record(a, b)
    assert states(ours) == states(loop)


@pytest.mark.parametrize("kernel", ["sphere", "gaussian"])
@pytest.mark.parametrize("n, K", [(1, 1), (3, 7), (5, 2000)])
def test_first_step_follows_the_grad_estimate_direction(kernel, n, K):
    # the suites validate grad_estimate: the run must step along its direction
    F, X = problem(n)
    starts = X.sample(3, np.random.default_rng(n))
    rho, h = 0.05, 0.3
    batch = sgd_run(F, X, starts, [rho], h, kernel, K, [7, 8, 9])
    for s, seed in enumerate((7, 8, 9)):
        alone = sgd_run(F, X, starts[s], [rho], h, kernel, K, seed)
        eta = grad_estimate(F, starts[s], Kernel(kernel, h), K, np.random.default_rng(seed))
        want = X.project(starts[s] - rho * eta)
        assert same(alone.x_last, want)
        assert same(batch.x_last[s], want)


@pytest.mark.parametrize("kernel", ["sphere", "gaussian"])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_second_moment_check_measures_the_run_estimator(kernel, n):
    # validate moments checks second_moment_check: it must be the mean of the
    # squared norms of P single-direction grad_estimate calls on one stream
    F, x, P = calibration("l1-norm", n).batch, np.full(n, 0.5), 2000
    got = second_moment_check(F, x, Kernel(kernel, 0.05), P, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    norms = [_row_sum(np.square, grad_estimate(F, x, Kernel(kernel, 0.05), 1, rng))
             for _ in range(P)]
    assert same(got, float(np.mean(norms)))

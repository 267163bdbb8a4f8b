"""The per-iteration path keeps its numbers: each slimmed formula against the one it replaced.

The references below are the formulas as they were before the hot path was
cut down to fewer numpy calls; every comparison is bit for bit.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothopt.optimizer import Schedule, StepRule, WidthRule, sgd_run
from smoothopt.penalty import Box
from smoothopt.problems import PolygonProblem, make_problem
from smoothopt.smoothing import _two_point_batch


def bits(a) -> np.ndarray:
    """The float64 bit patterns of ``a`` (so -0.0 differs from 0.0)."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def old_embed(poly, v):
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if v.shape[-1] != poly.dimension:
        raise ValueError(f"expected reduced vectors of length {poly.dimension}")
    z = np.zeros((v.shape[0], 2 * poly.n))
    z[:, 1:poly.n] = v[:, :poly.n - 1]
    z[:, poly.n + 1:] = v[:, poly.n - 1:]
    return z


def old_penalized_batch(poly, z):
    """``PolygonProblem.penalized_batch`` as it was: two clips, pinned writes, two norms."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n = poly.n
    r, phi = z[:, :n], z[:, n:]
    r_hat = np.clip(r, 0.0, 1.0)
    phi_hat = np.clip(phi, 0.0, poly.phi_max)
    r_hat[:, 0] = 0.0
    phi_hat[:, 0] = 0.0
    angle_sum = phi_hat.sum(axis=1)
    over = angle_sum > math.pi
    lam = np.where(over, math.pi / np.where(over, angle_sum, 1.0), 1.0)
    area_phi = phi_hat * lam[:, None]
    f1 = 0.5 * np.sum(r_hat[:, 1:] * r_hat[:, :-1] * np.sin(area_phi[:, 1:]), axis=1)
    f1 -= np.where(over, poly.p1 * (angle_sum - math.pi), 0.0)
    i, j = np.triu_indices(n, k=1)
    theta = np.cumsum(phi_hat, axis=1)
    ri, rj = r_hat[:, i], r_hat[:, j]
    sq = ri ** 2 + rj ** 2 - 2.0 * ri * rj * np.cos(theta[:, j] - theta[:, i])
    dist = np.sqrt(np.maximum(sq, 0.0))
    violation = np.cumsum(np.maximum(0.0, dist - 1.0), axis=1)[:, -1]
    f2 = f1 - poly.p2 * violation
    retraction = np.linalg.norm(r - r_hat, axis=1) + np.linalg.norm(phi - phi_hat, axis=1)
    return f2 - poly.p3 * retraction


def polygon_rows(poly, m, seed, spread, wide_angles, edge_share):
    """Raw rows ``(m, 2n)``: in the box (spread 0) or up to ``spread`` outside it,
    with angle sums above pi when ``wide_angles``, and a share of coordinates set
    to an exact box edge or to -0.0."""
    n = poly.n
    rng = np.random.default_rng(seed)
    upper = np.concatenate([np.ones(n), np.full(n, poly.phi_max)])
    Z = rng.uniform(-spread, upper + spread, size=(m, 2 * n))
    edges = np.stack([np.zeros(2 * n), upper, np.full(2 * n, -0.0)])
    mask = rng.random((m, 2 * n)) < edge_share
    if wide_angles:  # each angle >= 0.8 * 2pi/n, so n - 1 >= 2 of them sum past pi
        Z[:, n:] = rng.uniform(0.8 * poly.phi_max, poly.phi_max + spread, size=(m, n))
        mask[:, n:] = False
    Z[mask] = edges[rng.integers(0, 3, size=(m, 2 * n)), np.arange(2 * n)][mask]
    return Z


ROWS = dict(n=st.integers(3, 20), m=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1),
            spread=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]), wide_angles=st.booleans(),
            edge_share=st.sampled_from([0.0, 0.1, 0.5]))


@settings(max_examples=150, deadline=None)
@given(**ROWS)
def test_polygon_objective_equals_old_formula_bit_for_bit(n, m, seed, spread, wide_angles,
                                                          edge_share):
    poly = PolygonProblem(n)
    Z = polygon_rows(poly, m, seed, spread, wide_angles, edge_share)
    if wide_angles:
        assert np.all(np.clip(Z[:, n + 1:], 0.0, poly.phi_max).sum(axis=1) > math.pi)
    # raw rows, pinned coordinates off their pins included
    assert np.array_equal(bits(poly.penalized_batch(Z)), bits(old_penalized_batch(poly, Z)))
    # reduced rows through embed, as the optimizer calls it
    V = np.concatenate([Z[:, 1:n], Z[:, n + 1:]], axis=1)
    want = -old_penalized_batch(poly, old_embed(poly, V))
    assert np.array_equal(bits(poly.objective_batch(V)), bits(want))
    # the one-point form is the one-row call of the batch formula
    assert bits(make_problem("polygon", n=n).objective(V[0])) == bits(want[0])
    assert bits(poly.penalized_batch(Z[0])[0]) == bits(old_penalized_batch(poly, Z[:1])[0])


def test_embed_checks_width_and_gives_rows():
    poly = PolygonProblem(4)
    assert poly.embed(np.arange(6.0)).shape == (1, 8)
    assert poly.embed(np.zeros((3, 6))).shape == (3, 8)
    for bad in (np.zeros(5), np.zeros((2, 8)), 1.0):
        with pytest.raises(ValueError, match="length 6"):
            poly.embed(bad)
    with pytest.raises(ValueError, match="length 8"):
        poly.penalized_batch(np.zeros((2, 6)))


STEPS = ["constant", "sphere-fixed", "sphere-decaying", "gaussian-fixed", "gaussian-decaying",
         "gaussian-vanishing"]


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(STEPS), coupled=st.booleans(), D=st.floats(1e-3, 1e3),
       L=st.floats(1e-3, 1e3), C=st.floats(1e-3, 1e3), n=st.integers(1, 10_000),
       K=st.integers(1, 10_000), T=st.integers(1, 3000), h=st.floats(1e-6, 1e3))
def test_schedule_arrays_equal_scalar_calls_bit_for_bit(kind, coupled, D, L, C, n, K, T, h):
    if kind == "constant":
        step = StepRule.constant(D)
    else:
        step = StepRule(kind, D=D, L=L, n=n, K=K, C=C, T=T if kind.endswith("-fixed") else None)
    width = WidthRule.coupled(L=L, K=K) if coupled else WidthRule.fixed(h)
    sched = Schedule(step, width)
    t = np.arange(1, T + 1)
    rho, hs = sched.values(t)
    scalar = [sched.values(int(i)) for i in t]
    assert rho.shape == hs.shape == (T,)
    assert np.array_equal(bits(rho), bits([r for r, _ in scalar]))
    assert np.array_equal(bits(hs), bits([w for _, w in scalar]))
    assert np.array_equal(bits(step.value(t)), bits(rho))
    assert all(np.ndim(v) == 0 for v in scalar[0])


def test_array_t_checked_like_scalar_t():
    rule = StepRule("sphere-fixed", D=1, L=1, n=2, K=1, C=1, T=10)
    with pytest.raises(ValueError, match="t = 11"):
        rule.value(np.arange(1, 12))
    with pytest.raises(ValueError, match="starts at 1"):
        rule.value(np.arange(0, 5))


@pytest.mark.parametrize("schedule, T", [
    # fixed rules with a horizon shorter than the run
    (Schedule(StepRule("sphere-fixed", D=1, L=1, n=2, K=1, T=5), WidthRule.fixed(0.1)), 6),
    (Schedule(StepRule("gaussian-fixed", D=1, L=1, n=2, K=1, T=5), WidthRule.fixed(0.1)), 40),
    # a coupled width L * rho / K with an estimated L of 0
    (Schedule(StepRule("sphere-decaying", D=1, L=1, n=2, K=1), WidthRule.coupled(L=0.0, K=1)), 3),
])
def test_bad_schedule_fails_before_any_evaluation(schedule, T):
    rows = []

    def f(Z):
        rows.append(len(Z))
        return np.abs(Z).sum(axis=1)

    X = Box(-np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        sgd_run(f, X, np.zeros((2, 2)), schedule, "sphere", 1, T, [0, 1])
    assert rows == []


@settings(max_examples=100, deadline=None)
@given(S=st.integers(1, 12), K=st.integers(1, 10), n=st.integers(1, 30),
       h=st.floats(1e-8, 1e3), seed=st.integers(0, 2 ** 32 - 1))
def test_probes_equal_concatenated_formula(S, K, n, h, seed):
    rng = np.random.default_rng(seed)
    x, Y = rng.normal(size=(S, n)), rng.normal(size=(S, K, n))
    seen = []
    P, f = _two_point_batch(lambda Z: seen.append(Z.copy()) or Z.sum(axis=1), x, h, Y)
    hY = h * Y
    want = np.concatenate([x[:, None, :] + hY, x[:, None, :] - hY], axis=1)
    assert np.array_equal(bits(P), bits(want))
    assert np.array_equal(bits(seen[0]), bits(want.reshape(-1, n)))
    assert f.shape == (S, 2 * K)

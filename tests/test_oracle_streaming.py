"""The streamed smoothing draw and quadrature oracle equal their whole-array forms bit for bit.

``Kernel.sample_smoothing_points`` and ``validate.quadrature_gradient`` work
in fixed row blocks; the reference functions below are their one-shot forms.
Also: the oracle's memory stays bounded, and ``gradient_suite`` rejects
degenerate input instead of passing vacuously.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothopt import smoothing
from smoothopt.harness import validate
from smoothopt.harness.validate import gradient_suite, quadrature_gradient
from smoothopt.problems import calibration
from smoothopt.smoothing import Kernel

BLOCK = 7
COUNTS = [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5]


def reference_smoothing_points(kernel, dimension, count, rng):
    """``sample_smoothing_points`` as one whole-array draw."""
    g = rng.standard_normal((count, dimension))
    if kernel.variant == "gaussian":
        return g
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), dimension))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    z = g / norms
    return z * (rng.random(count) ** (1.0 / dimension))[:, None]


def reference_quadrature_gradient(batch_f, x, kernel, samples, rng, delta_frac=0.02):
    """``quadrature_gradient`` with whole-array temporaries and one call per side."""
    x = np.asarray(x, dtype=float)
    n = x.size
    Z = reference_smoothing_points(kernel, n, samples, rng)
    shifted = x + kernel.h * Z
    delta = delta_frac * kernel.h
    grad, se = np.empty(n), np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = delta
        d = (batch_f(shifted + e) - batch_f(shifted - e)) / (2.0 * delta)
        grad[i] = d.mean()
        se[i] = d.std(ddof=1) / math.sqrt(samples)
    return grad, se


def same(a, b) -> bool:
    """Bit-identical: equal shape and equal bytes (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class Recorder:
    """A batch objective that keeps a copy of every probe array it is given."""

    def __init__(self, f):
        self.f = f
        self.probes = []

    def __call__(self, X):
        self.probes.append(X.copy())
        return self.f(X)


OBJECTIVES = {
    "l1": lambda n: calibration("l1-norm", n).batch,
    # returns a view of its input: the two sides must not share a buffer
    "view": lambda n: (lambda X: X[:, 0]),
}


@settings(max_examples=80, deadline=None)
@given(count=st.sampled_from(COUNTS), n=st.sampled_from([1, 2, 3, 8, 10]),
       variant=st.sampled_from(["sphere", "gaussian"]), seed=st.integers(0, 2 ** 32 - 1))
def test_streamed_smoothing_points_equal_one_shot_draw(count, n, variant, seed):
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    kernel = Kernel(variant, 0.3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smoothing, "_SMOOTHING_BLOCK_ROWS", BLOCK)
        got = kernel.sample_smoothing_points(n, count, ours)
    want = reference_smoothing_points(kernel, n, count, ref)
    np.testing.assert_array_equal(got, want)
    assert same(got, want)
    assert ours.bit_generator.state == ref.bit_generator.state


@settings(max_examples=120, deadline=None)
@given(samples=st.sampled_from(COUNTS), n=st.sampled_from([1, 2, 3, 8, 10]),
       variant=st.sampled_from(["sphere", "gaussian"]), seed=st.integers(0, 2 ** 32 - 1),
       h=st.sampled_from([0.05, 0.7]), zeros=st.integers(0, 2 ** 10 - 1),
       objective=st.sampled_from(sorted(OBJECTIVES)))
# a subnormal width rounds h*z to signed zeros, so -0.0 reaches the probes
@example(samples=2 * BLOCK + 5, n=3, variant="gaussian", seed=1, h=5e-324, zeros=5,
         objective="l1")
def test_streamed_oracle_equals_whole_array_form(samples, n, variant, seed, h, zeros, objective):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
    x[[(zeros >> i) & 1 == 1 for i in range(n)]] = -0.0
    kernel = Kernel(variant, h)
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    f_ours, f_ref = Recorder(OBJECTIVES[objective](n)), Recorder(OBJECTIVES[objective](n))
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(smoothing, "_SMOOTHING_BLOCK_ROWS", BLOCK)
        mp.setattr(validate, "_ORACLE_BLOCK_ROWS", BLOCK)
        grad, se = quadrature_gradient(f_ours, x, kernel, samples, ours)
        want_grad, want_se = reference_quadrature_gradient(f_ref, x, kernel, samples, ref)
    np.testing.assert_array_equal(grad, want_grad)
    np.testing.assert_array_equal(se, want_se)
    assert same(grad, want_grad) and same(se, want_se)
    assert ours.bit_generator.state == ref.bit_generator.state
    # the probes, signed zeros included: per coordinate, the plus blocks and
    # the minus blocks in turn equal the reference's two whole-array calls
    blocks = -(-samples // BLOCK)
    assert len(f_ours.probes) == 2 * n * blocks and len(f_ref.probes) == 2 * n
    for i in range(n):
        mine = f_ours.probes[2 * blocks * i:2 * blocks * (i + 1)]
        assert same(np.concatenate(mine[0::2]), f_ref.probes[2 * i])
        assert same(np.concatenate(mine[1::2]), f_ref.probes[2 * i + 1])


def test_sphere_redraws_a_zero_row_after_its_block():
    # an exact all-zero normal row in the second block is re-drawn right
    # after that block's normals, before the third block and the radii
    class ZeroRowStream:
        def __init__(self):
            self.calls = []

        def standard_normal(self, shape, out=None):
            self.calls.append(("normal", shape))
            g = np.full(shape, 1.0 + len(self.calls))
            if len(self.calls) == 2:
                g[1] = 0.0
            if out is None:
                return g
            out[...] = g
            return out

        def random(self, size):
            self.calls.append(("random", size))
            return np.full(size, 0.5)

    stream = ZeroRowStream()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smoothing, "_SMOOTHING_BLOCK_ROWS", 4)
        z = Kernel.sphere(1.0).sample_smoothing_points(2, 10, stream)
    assert stream.calls == [("normal", (4, 2)), ("normal", (4, 2)), ("normal", (1, 2)),
                            ("normal", (2, 2)), ("random", 10)]
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), math.sqrt(0.5), rtol=1e-15)


@pytest.mark.parametrize("variant", ["sphere", "gaussian"])
def test_oracle_memory_is_bounded(variant):
    # the shifted draws, the paired differences and one temporary of std's
    # are whole arrays; everything else is block-sized.  The whole-array form
    # peaks near 24 MB here
    N, n = 200_000, 3
    f = calibration("l1-norm", n).batch
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        quadrature_gradient(f, np.full(n, 0.25), Kernel(variant, 0.1), N,
                            np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < (N * n + 2 * N) * 8 + 2 * 2 ** 20


class TestGradientSuiteInput:
    @pytest.mark.parametrize("kwargs", [{"points": 0}, {"replicates": 1}, {"batch": 0},
                                        {"oracle_samples": 1}])
    def test_degenerate_input_is_rejected_before_any_draw(self, kwargs, monkeypatch):
        def no_draw(*args, **kw):
            raise AssertionError("drew before checking its input")

        monkeypatch.setattr(validate, "quadrature_gradient", no_draw)
        monkeypatch.setattr(validate, "grad_estimate", no_draw)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            gradient_suite(**kwargs)

    def test_oracle_rejects_fewer_than_two_samples(self):
        with pytest.raises(ValueError):
            quadrature_gradient(lambda X: X[:, 0], np.zeros(2), Kernel.sphere(0.1), 1,
                                np.random.default_rng(0))

    def test_non_finite_deviation_fails(self, monkeypatch):
        # a NaN deviation in any point fails the check instead of being dropped
        calls = []

        def oracle(batch_f, x, kernel, samples, rng):
            calls.append(None)
            value = np.full(x.size, np.nan if len(calls) == 2 else 0.0)
            return value, np.ones(x.size)

        monkeypatch.setattr(validate, "quadrature_gradient", oracle)
        checks = gradient_suite(dims=(2,), kernels=("sphere",), widths=(0.5,), points=3,
                                replicates=2, batch=4)
        assert len(calls) == 3
        assert [c.passed for c in checks] == [False]
        assert math.isnan(checks[0].measured)
        assert checks[0].line().startswith("[FAIL]")

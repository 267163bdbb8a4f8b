"""Short-row sums: ``smoothing._row_sum`` and its callers equal the plain row reductions bit for bit.

``_row_sum`` builds its elementwise temporary column-major when the last
axis has fewer than 8 entries, so ``add.reduce`` adds whole columns.  The
reference functions below are the formulas it replaced: the l1 objective's
``np.abs(X).sum(axis=-1)``, the sphere normalisation's
``g / sqrt(add.reduce(g * g, axis=1))`` and ``second_moment_check``'s
``(d ** 2).sum(axis=1)`` over its K = 1 directions ``d = q * y``.  Also:
``smoothed_value`` shifts its draw in place.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from smoothopt.problems import calibration
from smoothopt.smoothing import Kernel, _row_sum, second_moment_check, smoothed_value

# signed zeros, subnormals and values whose squares and sums overflow
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e300, -1.7e300, 1.79e308, 1.0, -3.0]
ELEMENTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL))


def same(a, b) -> bool:
    """Bit-identical: equal shape and equal bytes (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def operands(draw, leads=((), (1,), (5,), (2, 3))):
    """A float array ``(*lead, n)`` with n in 1..12, C-order, F-order or a strided view.

    The leading shapes are a 1-D point, one row, rows and an ``(S, m)`` stack.
    """
    shape = draw(st.sampled_from(leads)) + (draw(st.integers(1, 12)),)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        shape = tuple(2 * d for d in shape)
    X = draw(hnp.arrays(np.float64, shape, elements=ELEMENTS))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        X = X[(slice(None, None, -2),) * X.ndim]
    return X


@given(operands())
@settings(max_examples=300, deadline=None)
def test_row_sum_is_the_plain_row_reduction(X):
    with np.errstate(over="ignore", under="ignore"):
        assert same(_row_sum(np.abs, X), np.abs(X).sum(axis=-1))
        assert same(_row_sum(np.square, X), np.add.reduce(X * X, axis=-1))
        assert same(_row_sum(np.square, X), (X ** 2).sum(axis=-1))


@pytest.mark.parametrize("n", range(1, 13))
def test_row_sum_on_rows_spanning_many_scales(n):
    # the pinned fact: below 8 terms numpy adds left to right in either
    # layout, from 8 on the layout is kept; rows of 8,192 match the oracle's
    # blocks, and magnitudes spanning e^+-20 make the order of additions show
    rng = np.random.default_rng(n)
    X = rng.standard_normal((8192, n)) * np.exp(rng.uniform(-20.0, 20.0, (8192, n)))
    assert same(_row_sum(np.abs, X), np.abs(X).sum(axis=-1))
    assert same(_row_sum(np.square, X), np.add.reduce(X * X, axis=1))
    if n < 8:
        left_to_right = np.abs(X[:, 0])
        for j in range(1, n):
            left_to_right += np.abs(X[:, j])
        assert same(_row_sum(np.abs, X), left_to_right)


@given(operands())
@settings(max_examples=200, deadline=None)
def test_l1_batch_is_the_plain_formula(X):
    f = calibration("l1-norm", X.shape[-1])
    with np.errstate(over="ignore"):
        assert same(f.batch(X), np.abs(np.asarray(X, dtype=float)).sum(axis=-1))
        for row in X.reshape(-1, X.shape[-1]):
            # the one-point form is the one-row call, with the one-point formula's bits
            assert same(np.float64(f.fn(row)), np.abs(row).sum())
            assert same(np.float64(f.fn(row)), f.batch(row))


class QueuedRng:
    """Stands in for a Generator: ``standard_normal`` hands out queued arrays, then ones.

    Like a Generator's draws, the arrays are C-order.
    """

    def __init__(self, *arrays):
        self.arrays = [np.array(a, order="C") for a in arrays]

    def standard_normal(self, shape, out=None):
        g = self.arrays.pop(0) if self.arrays else np.ones(shape)
        assert g.shape == tuple(shape)
        if out is None:
            return g
        out[...] = g
        return out


def reference_sphere_directions(dimension, count, rng):
    """The sphere branch of ``Kernel.sample_directions`` before ``_row_sum``."""
    g = rng.standard_normal((count, dimension))
    norms = np.sqrt(np.add.reduce(g * g, axis=1, keepdims=True))
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), dimension))
        norms = np.sqrt(np.add.reduce(g * g, axis=1, keepdims=True))
    g /= norms
    return g


@given(operands(leads=((1,), (5,), (9,))))
@settings(max_examples=200, deadline=None)
def test_sphere_normalisation_is_the_plain_formula(G):
    # extreme draws: subnormal rows square to zero and are re-drawn (as ones),
    # rows near 1e300 overflow to an infinite norm; both forms must agree
    count, dimension = G.shape
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        expected = reference_sphere_directions(dimension, count, QueuedRng(G))
        got = Kernel.sphere(1.0).sample_directions(dimension, count, QueuedRng(G))
        out = np.full((count + 2, dimension), 7.0)
        filled = Kernel.sphere(1.0).sample_directions(dimension, count, QueuedRng(G),
                                                      out=out[1:-1])
    assert same(got, expected)
    assert same(filled, expected) and filled.base is out


@pytest.mark.parametrize("dimension", [1, 2, 3, 7, 8, 12])
@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_sphere_draw_is_the_plain_formula(dimension, seed):
    got = Kernel.sphere(0.5).sample_directions(dimension, 20_000, np.random.default_rng(seed))
    expected = reference_sphere_directions(dimension, 20_000, np.random.default_rng(seed))
    assert same(got, expected)


@pytest.mark.parametrize("variant", ["sphere", "gaussian"])
@pytest.mark.parametrize("n", [1, 4, 9])
def test_second_moment_check_is_the_plain_formula(variant, n):
    f = calibration("l1-norm", n).batch
    x, kernel, K = np.full(n, 0.5), Kernel(variant, 0.05), 5_000
    got = second_moment_check(f, x, kernel, K, np.random.default_rng(3))
    Y = kernel.sample_directions(n, K, np.random.default_rng(3))
    q = (f(x + kernel.h * Y) - f(x - kernel.h * Y)) / (2.0 * kernel.h)
    d = q[:, None] * Y
    assert same(got, float((d ** 2).sum(axis=1).mean()))


@pytest.mark.parametrize("variant", ["sphere", "gaussian"])
def test_smoothed_value_is_the_out_of_place_formula(variant):
    f = calibration("l1-norm", 3).batch
    x, kernel, N = np.array([0.25, -0.5, 0.0]), Kernel(variant, 0.3), 20_001
    value, se = smoothed_value(f, x, kernel, N, np.random.default_rng(4))
    vals = f(x + kernel.h * kernel.sample_smoothing_points(3, N, np.random.default_rng(4)))
    assert same(value, float(vals.mean()))
    assert same(se, float(vals.std(ddof=1) / np.sqrt(N)))


@pytest.mark.parametrize("variant", ["sphere", "gaussian"])
def test_smoothed_value_memory_is_bounded(variant):
    # the draw is shifted in place, so beside it only the radii and one
    # temporary of std's are whole arrays; the out-of-place form peaks near
    # three draws (24 MB) here
    N, n = 100_000, 10
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        smoothed_value(lambda X: X[:, 0], np.full(n, 0.25), Kernel(variant, 0.1), N,
                       np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < (N * n + 2 * N) * 8 + 2 * 2 ** 20

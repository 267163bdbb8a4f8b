"""Kernel smoothing and two-point stochastic finite-difference gradients.

A function ``F`` is smoothed by averaging over a width-``h`` probability
kernel, ``F_h(x) = E F(x + h*z)``.  Two kernels are supported:

* ``"sphere"`` -- directions uniform on the unit Euclidean sphere; the
  smoothing measure is uniform on the unit *ball* (the classical averaged
  function), and the symmetric two-point sample
  ``(F(x+h*y) - F(x-h*y)) / (2h) * y`` times the dimension ``n`` is an
  unbiased estimate of ``grad F_h(x)``.
* ``"gaussian"`` -- standard normal directions; the same two-point sample is
  already unbiased for ``grad F_h(x)`` without rescaling.

Only the symmetric (central) difference is implemented; it has lower variance
than the one-sided form and matches the step-size theory in
:mod:`smoothopt.optimizer`.

Objectives here and in the layers above are batch objectives: rows ``(m, n)``
in, ``m`` values out; wrap a one-point ``f`` as ``lambda P: np.array([f(p) for p in P])``.

Two-point samples are independent across directions and across runs, so
all probes of an iteration go to the objective in one stacked call: each
run's ``K`` plus probes, then its ``K`` minus probes, runs in order.  The
directions are drawn before that call, one generator per run, so a run's
draws and values do not depend on which other runs share the call.
``_estimate`` is that one estimator: ``sgd_run`` steps along its directions,
:func:`grad_estimate` returns one as an ``(n,)`` array, :func:`second_moment_check`
averages their squared norms, and :func:`smoothed_value` returns ``(value, std_error)``.

The directions do not depend on the iterate or the width either, so
:func:`smoothopt.optimizer.sgd_run` draws them per chunk of iterations: one
:meth:`Kernel.sample_directions` call per run and chunk, in run order,
written through ``out=`` into that run's slice of one preallocated block.
``Generator.standard_normal`` fills in stream order, so a chunk holds the
numbers per-iteration draws would.  The one difference is the sphere
kernel's re-draw of an all-zero normal row, which comes after the whole
chunk instead of right after that iteration's rows.  It needs every
coordinate of a row to be exactly 0.0, so no realizable run changes.

:meth:`Kernel.sample_smoothing_points` streams the same way: directions in
fixed row blocks into one array (``out`` when given), then the sphere's
radii, one ``rng.random`` call per block, so temporaries stay block-sized
and the numbers are those of one whole-array draw, bar one difference: an
all-zero normal row is re-drawn after its block.  Broadcasts and sums over
rows shorter than 8 run a column at a time (``_order``); ``_row_sum`` then
adds in the left-to-right order numpy uses for short rows anyway.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Kernel",
    "EvaluationError",
    "grad_estimate",
    "smoothed_value",
    "second_moment_check",
]

_VARIANTS = ("sphere", "gaussian")

# Rows per direction draw in Kernel.sample_smoothing_points: bounds the
# temporaries of the sphere normalisation.
_SMOOTHING_BLOCK_ROWS = 8192


def _order(X):
    """``"F"`` for rows shorter than 8, which numpy would run one per inner loop, else ``"K"``."""
    return "F" if X.shape[-1] < 8 else "K"


def _row_sum(op, X):
    """``np.add.reduce(op(X), axis=-1)`` for an elementwise ufunc `op`, bit for bit.

    numpy adds fewer than 8 terms left to right in any layout, but reduces a
    short C-order last axis one row per inner loop; a column-major ``op(X)``
    is summed a whole column at a time.  From 8 terms on a contiguous row is
    summed pairwise, so there the layout is kept.
    """
    return np.add.reduce(op(X, order=_order(X)), axis=-1)


class EvaluationError(RuntimeError):
    """The objective returned a non-finite value at a probe point.

    Samples are never silently dropped -- that would bias the estimator -- so
    the first bad value aborts the whole estimate.  ``point`` and ``value``
    identify the offending probe; ``run`` is its run's index in a lockstep
    batch of runs.  ``iteration``, ``stage`` and ``seed`` are filled in by the
    optimizer, continuation and runner layers as the error propagates.
    """

    def __init__(self, point, value, iteration=None, stage=None, run=None, seed=None):
        self.point = np.asarray(point, dtype=float)
        self.value = value
        self.iteration = iteration
        self.stage = stage
        self.run = run
        self.seed = seed
        super().__init__(self._message())

    def _message(self):
        msg = f"objective returned non-finite value {self.value!r} at {self.point!r}"
        if self.seed is not None:
            msg += f" (seed {self.seed})"
        elif self.run is not None:
            msg += f" (run {self.run})"
        if self.iteration is not None:
            msg += f" (iteration {self.iteration})"
        if self.stage is not None:
            msg += f" (stage {self.stage})"
        return msg

    def with_context(self, iteration=None, stage=None, seed=None) -> "EvaluationError":
        return EvaluationError(self.point, self.value,
                               iteration if iteration is not None else self.iteration,
                               stage if stage is not None else self.stage,
                               self.run,
                               seed if seed is not None else self.seed)


@dataclass(frozen=True)
class Kernel:
    """Smoothing distribution: a direction law plus a width ``h > 0``."""

    variant: str
    h: float

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}; expected one of {_VARIANTS}")
        if not self.h > 0:
            raise ValueError("kernel width h must be positive")

    @classmethod
    def sphere(cls, h: float) -> "Kernel":
        return cls("sphere", h)

    @classmethod
    def gaussian(cls, h: float) -> "Kernel":
        return cls("gaussian", h)

    def sample_directions(self, dimension: int, count: int, rng: np.random.Generator,
                          out: np.ndarray | None = None) -> np.ndarray:
        """Draw `count` finite-difference directions, shape ``(count, dimension)``.

        Deterministic given the stream state.  The sphere kernel re-draws
        all-zero rows in place, after the whole draw, so none is dropped.
        With `out`, a C-contiguous ``(count, dimension)`` array, the
        directions are written there and `out` is returned.
        """
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        g = rng.standard_normal((count, dimension), out=out)
        if self.variant == "gaussian":
            return g
        # np.linalg.norm's own formula for real rows; a zero draw has
        # probability zero, but is re-drawn defensively anyway
        while not (norms := np.sqrt(_row_sum(np.square, g))).all():
            bad = norms == 0.0
            g[bad] = rng.standard_normal((int(bad.sum()), dimension))
        np.divide(g, norms[:, None], out=g, order=_order(g))
        return g

    def sample_smoothing_points(self, dimension: int, count: int, rng: np.random.Generator,
                                out: np.ndarray | None = None) -> np.ndarray:
        """Draw from the smoothing measure itself: ball-uniform for the sphere
        variant (directions scaled by ``U**(1/n)``), standard normal otherwise.

        The directions are drawn in blocks of ``_SMOOTHING_BLOCK_ROWS`` rows
        into `out` (a new array when None), then, for the sphere, each block's radii.
        """
        z = np.empty((count, dimension)) if out is None else out
        blocks = [z[i:i + _SMOOTHING_BLOCK_ROWS] for i in range(0, count, _SMOOTHING_BLOCK_ROWS)]
        for block in blocks:
            self.sample_directions(dimension, len(block), rng, out=block)
        if self.variant == "sphere":
            for block in blocks:
                u = rng.random(len(block))
                u **= 1.0 / dimension
                np.multiply(block, u[:, None], out=block, order=_order(block))
        return z

    def gradient_scale(self, dimension: int) -> float:
        """Factor turning the raw two-point average into an unbiased gradient."""
        return float(dimension) if self.variant == "sphere" else 1.0


def _evaluate(F: Callable, points: np.ndarray) -> np.ndarray:
    """Evaluate the batch objective ``F`` at points stacked along the leading axes.

    ``F`` receives the points in C order as one ``(m, n)`` array and must
    return ``m`` values; they come back in the leading shape.  A non-finite
    value raises :class:`EvaluationError`; in a ``(S, m, n)`` stack the
    leading axis is the run, and the error names its run.
    """
    flat = points.reshape(-1, points.shape[-1])
    vals = np.asarray(F(flat), dtype=float)
    if vals.shape != (flat.shape[0],):
        raise ValueError(f"objective returned shape {vals.shape}, expected ({flat.shape[0]},)")
    if not np.logical_and.reduce(np.isfinite(vals)):
        i = int(np.argmax(~np.isfinite(vals)))
        run = i // points.shape[1] if points.ndim == 3 else None
        raise EvaluationError(flat[i], vals[i], run=run)
    return vals.reshape(points.shape[:-1])


def _estimate(F, x, h, Y):
    """The two-point estimator of S runs, probed in one stacked call.

    ``x`` holds the runs' points ``(S, n)`` and ``Y`` their directions
    ``(S, K, n)``; each run's ``K`` plus probes ``x_s + h*y`` go before its
    ``K`` minus probes.  Returns the probe values ``(S, 2K)`` and the
    directions ``mean_k q_k * y_k`` ``(S, n)`` of the two-point quotients
    ``q = (F(x+h*y) - F(x-h*y)) / (2h)``.
    """
    S, K, n = Y.shape
    hY, x = h * Y, x[:, None]
    P = np.empty((S, 2 * K, n))
    np.add(x, hY, out=P[:, :K])
    np.subtract(x, hY, out=P[:, K:])
    f = _evaluate(F, P)
    quotients = (f[:, :K] - f[:, K:]) / (2.0 * h)
    return f, np.add.reduce(quotients[:, :, None] * Y, axis=1) / K


def grad_estimate(F: Callable, x, kernel: Kernel, K: int,
                  rng: np.random.Generator) -> np.ndarray:
    """The direction ``eta`` ``(n,)`` that an SGD step at ``x`` moves against.

    The S = 1 call of :func:`smoothopt.optimizer.sgd_run`'s estimator: ``2 * K``
    evaluations (probes ``x +- h*y`` for ``K`` kernel directions ``y``) in one
    call of the batch objective ``F``, plus probes first.  The unbiased
    estimate of ``grad F_h(x)`` is ``kernel.gradient_scale(n) * eta``.
    """
    if K < 1:
        raise ValueError("batch size K must be at least 1")
    x = np.asarray(x, dtype=float)
    Y = kernel.sample_directions(x.size, K, rng)
    return _estimate(F, x[None], kernel.h, Y[None])[1][0]


def smoothed_value(F: Callable, x, kernel: Kernel, N: int,
                   rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo estimate ``(value, std_error)`` of ``F_h(x) = E F(x + h*z)``.

    The sphere kernel draws ``z`` uniformly in the unit ball (not on the
    sphere): that is the measure whose gradient the two-point sphere estimator
    targets.  Exactly ``N`` objective evaluations are performed.
    """
    if N < 1:
        raise ValueError("sample count N must be at least 1")
    x = np.asarray(x, dtype=float)
    Z = kernel.sample_smoothing_points(x.size, N, rng)
    Z *= kernel.h
    Z += x
    vals = _evaluate(F, Z)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(N)) if N > 1 else float("nan")
    return mean, se


def second_moment_check(F: Callable, x, kernel: Kernel, K_probe: int,
                        rng: np.random.Generator) -> float:
    """Empirical mean of the squared norm of single two-point samples.

    Estimates ``E || (F(x+h*y) - F(x-h*y)) / (2h) * y ||^2`` from the
    directions of `K_probe` K = 1 runs at ``x`` of the SGD recursion's
    estimator, in one stacked call; used to check the kernel-dependent
    variance bounds of the step-size theory.
    """
    if K_probe < 1:
        raise ValueError("K_probe must be at least 1")
    x = np.asarray(x, dtype=float)
    Y = kernel.sample_directions(x.size, K_probe, rng)
    _, directions = _estimate(F, np.broadcast_to(x, Y.shape), kernel.h, Y[:, None])
    return float(_row_sum(np.square, directions).mean())

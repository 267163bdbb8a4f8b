"""Projected stochastic finite-difference gradient descent with averaging.

The iterate recursion is ``x_{t+1} = project_X(x_t - rho_t * eta_t)`` where
``eta_t`` is the *raw* batch two-point direction from
:mod:`smoothopt.smoothing` (the step-size rules are calibrated to it) and
``X`` is a compact convex set supplied by the caller.  ``X`` is distinct from
the feasible set of the original constrained problem: the penalized objective
must be allowed to be active inside ``X``.

Step-size rules follow the known convergence guarantees for convex Lipschitz
objectives; :func:`rate_bound` evaluates the matching right-hand sides so
empirical rates can be checked against them.  :func:`sgd_run` takes a run's
step sizes and widths as arrays over ``t = 1..T``, which
:meth:`smoothopt.continuation.SmoothingPlan.values` computes for a stage.

A run is inherently sequential in ``t``, but independent runs are not:
:func:`sgd_run` advances S runs in lockstep, with one stacked objective call
of ``S * 2K`` probes per iteration.  Each run draws from its own generator,
so a run in a lockstep batch reproduces the same run alone bit for bit.

The directions depend only on a run's generator, never on its iterate or
width, so they are drawn ahead of the iterations that use them: one call per
run for a chunk of iterations, in run order, written in place into that run's
slice of one chunk array, and never beyond the run's last iteration.
``Generator.standard_normal`` fills arrays in stream order, so a chunk holds
the same numbers as per-iteration draws and leaves the generator in the same
state.  Step sizes and widths likewise come in once per run, as arrays,
and each iteration writes its probes into one fresh ``(S, 2K, n)`` array,
since per-call numpy overhead is its main cost.

For the same reason an iteration keeps no running sums and no best probe: it
stores its iterate and its ``2K`` values per run, and the bookkeeping waits
for the end of the chunk.  There one reduction over the chunk's iterates
advances the plain and step-weighted sums with the adds, in the order, of
sums updated every iteration, and the chunk's best probe -- the first
minimum in ``(t, k)`` order -- is rebuilt as ``x_t +- h_t * y`` from the
chunk's directions.  Memory stays bounded by the chunk, not by ``T``, and
no iterate outlives its chunk: as a run never draws past its last iteration,
the averages at ``t`` are those of a run of length ``t`` (for a step rule
that does not depend on the horizon).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .penalty import FeasibleSet
from .smoothing import EvaluationError, Kernel, _estimate, _evaluate

__all__ = [
    "STEP_KINDS",
    "step_kinds",
    "StepRule",
    "RunRecord",
    "rate_bound",
    "sgd_run",
    "estimate_lipschitz",
    "ITERATE_TOL",
]

# Iterates are considered inside X up to this projection tolerance.
ITERATE_TOL = 1e-9

# Directions drawn per run in one call: at most this many rows (and at least
# one iteration's K), so the chunk's memory does not grow with T.  A chunk
# also keeps its iterates and probe values to its end, about twice the size
# of its directions at K = 2, so its peak memory stays below that of a
# 4096-row chunk of directions alone.
_DRAW_ROWS = 512


class StepKind(NamedTuple):
    """A row of :data:`STEP_KINDS`."""

    rho: Callable | str   # rho(rule, tau), or why there is no step rule
    needs: tuple          # the rule's fields rho reads, each > 0; with T, tau is the horizon
    params: dict          # a config step's parameters: default, None if required
    bound: Callable | str  # bound(D, L, n, K, C, t) of rate_bound, or why there is none
    modes: tuple          # the config sections that take the kind
    make: Callable | None = None  # the rule's fields from the parameters, if not `needs`


def _sphere(r, tau):
    return r.D * np.sqrt(r.n * r.K) / (r.L * np.sqrt(2.0 * tau * (r.C + r.K / r.n)))


def _gaussian(r, tau):
    return r.D / (r.L * np.sqrt(2.0 * tau * (1.0 + (r.n - 1.0) / r.K)))


def _tail(t):
    return (2.0 + np.log(t)) / (np.sqrt(t) - 1.0)


_AUTO = {"D": "auto", "L": "auto"}  # the Gaussian rules have no C
_ANALYTIC = {**_AUTO, "C": 1.0}
_HAND_SET = "a step size set by hand carries no rate guarantee"

# The one table of step kinds, read by StepRule, rate_bound, the config and
# the runner.  rho and the bounds keep their operations in order.
STEP_KINDS: dict[str, StepKind] = {
    "constant": StepKind(lambda r, tau: _full_like(tau, r.rho), ("rho",), {"rho": None},
                         _HAND_SET, ("plan", "schedule")),
    "constant-scaled": StepKind(lambda r, tau: _full_like(tau, r.rho), ("rho",), {"alpha": 0.1},
                                _HAND_SET, ("plan",),
                                make=lambda p: {"rho": p["alpha"] * p["h"] / p["L"]}),
    "sphere-fixed": StepKind(
        _sphere, ("D", "L", "n", "K", "C", "T"), _ANALYTIC,
        lambda D, L, n, K, C, t: (L * D / np.sqrt(t)) * np.sqrt(2.0 * n / K) * np.sqrt(C + K / n),
        ("schedule",)),
    "sphere-decaying": StepKind(
        _sphere, ("D", "L", "n", "K", "C"), _ANALYTIC,
        lambda D, L, n, K, C, t: ((D * L / np.sqrt(2.0)) * np.sqrt(n / K) * np.sqrt(C + K / n)
                                  * _tail(t)),
        ("plan", "schedule")),
    "sphere-vanishing": StepKind(
        "unmatched: the bound has no sphere step rule for coupled widths", (), {},
        lambda D, L, n, K, C, t: ((D * L / 2.0) * np.sqrt(n / K) * np.sqrt(2.0 + C + K / n)
                                  * _tail(t)),
        ()),
    "gaussian-fixed": StepKind(
        _gaussian, ("D", "L", "n", "K", "T"), _AUTO,
        lambda D, L, n, K, C, t: (L * D / np.sqrt(t)) * np.sqrt(2.0 * (1.0 + (n - 1.0) / K)),
        ("schedule",)),
    "gaussian-decaying": StepKind(
        _gaussian, ("D", "L", "n", "K"), _AUTO,
        lambda D, L, n, K, C, t: L * D * np.sqrt(2.0) * np.sqrt(1.0 + (n - 1.0) / K) * _tail(t),
        ("plan", "schedule")),
    "gaussian-vanishing": StepKind(
        lambda r, tau: r.D / (r.L * np.sqrt(tau * (1.0 + (r.n + 3.0) / r.K))),
        ("D", "L", "n", "K"), _AUTO,
        lambda D, L, n, K, C, t: (D * L / 2.0) * np.sqrt(1.0 + (n + 3.0) / K) * _tail(t),
        ("schedule",)),
}


def step_kinds(mode: str | None = None) -> tuple[str, ...]:
    """Kinds with a step rule, in table order; with ``mode``, those that config section takes."""
    return tuple(kind for kind, e in STEP_KINDS.items()
                 if callable(e.rho) and (mode is None or mode in e.modes))


def _step_kind(kind: str) -> StepKind:
    if kind not in step_kinds():
        raise ValueError(f"unknown step rule {kind!r}; expected one of {step_kinds()}")
    return STEP_KINDS[kind]


@dataclass(frozen=True)
class StepRule:
    """Step-size sequence ``rho_t`` of a kind in :data:`STEP_KINDS`, by its formula there.

    ``constant`` uses a user value.  The ``sphere-*`` rules are tuned for
    sphere-direction estimates, the ``gaussian-*`` rules for Gaussian ones.
    ``D`` bounds the norm of the projection set, ``L`` is the Lipschitz
    constant, ``n`` the dimension, ``K`` the batch size, ``C`` the sphere
    second-moment constant.  Fixed rules need the horizon ``T`` and reject
    queries beyond it.
    """

    kind: str
    rho: float | None = None
    D: float | None = None
    L: float | None = None
    n: int | None = None
    K: int | None = None
    C: float = 1.0
    T: int | None = None

    def __post_init__(self):
        for name in _step_kind(self.kind).needs:
            v = getattr(self, name)
            if v is None or not v > 0:
                raise ValueError(f"step rule {self.kind!r} needs {name} > 0")

    @classmethod
    def build(cls, step: dict, **context) -> "StepRule":
        """The rule a config ``step`` section describes: its ``kind`` and parameters.

        ``context`` holds the stage width ``h``, the ``D`` and ``L`` that an
        ``"auto"`` parameter takes, and ``n``, ``K`` and the horizon ``T``.
        """
        kind = step["kind"]
        entry = _step_kind(kind)
        p = dict(context)
        for name, default in entry.params.items():
            value = step.get(name, default)
            if value is None:
                raise ValueError(f"step rule {kind!r} needs its parameter {name!r}")
            if value != "auto":
                p[name] = float(value)
        return cls(kind, **(entry.make(p) if entry.make else {k: p[k] for k in entry.needs}))

    @classmethod
    def constant(cls, rho: float) -> "StepRule":
        return cls("constant", rho=rho)

    def value(self, t):
        """Step size at iteration ``t``; an integer array ``t`` gives an array with the bits
        of the scalar calls (the formulas are elementwise, ``sqrt`` correctly rounded)."""
        if np.any(np.less(t, 1)):
            raise ValueError("iteration index t starts at 1")
        entry = STEP_KINDS[self.kind]
        tau = t
        if "T" in entry.needs:
            if np.any(np.greater(t, self.T)):
                raise ValueError(f"step rule {self.kind!r} defined for t <= T = {self.T}, "
                                 f"got t = {np.max(t)}")
            tau = _full_like(t, self.T)
        return entry.rho(self, tau)


def _full_like(t, value):
    """``value`` for a scalar ``t``, an array of it shaped like an array ``t``."""
    return value if np.ndim(t) == 0 else np.full(np.shape(t), value)


def rate_bound(which: str, *, D: float, L: float, n: int, K: int, C: float = 1.0,
                  t: int) -> float:
    """Right-hand side of the convergence guarantee for the named regime.

    ``t`` is the horizon ``T`` for the fixed-step forms and the current
    iteration for the decaying/vanishing forms (which are undefined at
    ``t = 1`` where ``sqrt(t) - 1`` vanishes).  The ``*-vanishing`` forms
    bound the gap of the *unsmoothed* objective under coupled widths; the
    others bound the gap of ``F_h``.  The forms are those of :data:`STEP_KINDS`.
    """
    bounds = tuple(kind for kind, e in STEP_KINDS.items() if callable(e.bound))
    if which not in bounds:
        raise ValueError(f"unknown bound {which!r}; expected one of {bounds}")
    for name, v in (("D", D), ("L", L), ("n", n), ("K", K), ("C", C)):
        if not v > 0:
            raise ValueError(f"{name} must be positive")
    entry = STEP_KINDS[which]
    first = 1 if "T" in entry.needs else 2  # sqrt(t) - 1 vanishes at t = 1
    if t < first:
        raise ValueError(f"bound {which!r} is undefined for t < {first}")
    return entry.bound(D, L, n, K, C, t)


@dataclass
class RunRecord:
    """Reproducible summary of one SGD run, or of S runs in lockstep.

    ``best_point``/``best_value`` track the minimum over all probe evaluations
    already paid for by the estimator (no extra objective calls).  The best
    value need not dominate the value at either average; averaging and best
    tracking answer different questions.  A record keeps no iterates; see
    :func:`sgd_run` for the averages at an earlier ``t``.

    A lockstep record gives every point a leading run axis (``(S, n)``), one
    best value and one seed per run;
    :meth:`run` extracts run ``s``.  ``evaluations`` and ``iterations`` count
    per run.  ``wall_time`` is the time of the whole lockstep batch, which all
    its runs share.
    """

    x_first: np.ndarray
    x_last: np.ndarray
    plain_average: np.ndarray
    weighted_average: np.ndarray
    best_point: np.ndarray
    best_value: float | np.ndarray
    evaluations: int
    iterations: int
    seed: int | None | tuple
    wall_time: float

    def run(self, s: int) -> "RunRecord":
        """Record of run ``s`` of a lockstep batch."""
        return RunRecord(
            x_first=self.x_first[s],
            x_last=self.x_last[s],
            plain_average=self.plain_average[s],
            weighted_average=self.weighted_average[s],
            best_point=self.best_point[s],
            best_value=float(self.best_value[s]),
            evaluations=self.evaluations,
            iterations=self.iterations,
            seed=self.seed[s],
            wall_time=self.wall_time,
        )


def _as_rng(rng) -> tuple[np.random.Generator, int | None]:
    if isinstance(rng, np.random.Generator):
        return rng, None
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    return np.random.default_rng(rng), seed


def _lockstep_starts(x1, rng) -> tuple[np.ndarray, tuple, bool]:
    """Starts as ``(S, n)`` with one rng per run, and whether ``x1`` was one ``(n,)`` start."""
    x = np.array(x1, dtype=float)
    if x.ndim == 1:
        return x[None], (rng,), True
    if x.ndim != 2 or not isinstance(rng, (list, tuple, np.ndarray)) or len(rng) != len(x):
        raise ValueError("need starts of shape (n,), or (S, n) with one rng per start")
    return x, tuple(rng), False


def sgd_run(F: Callable, X: FeasibleSet, x1, rho, h, kernel: str, K: int, rng) -> RunRecord:
    """Run ``T = len(rho)`` projected two-point SGD steps from ``x1`` inside ``X``.

    Step ``t`` moves by ``rho[t-1]`` and probes at width ``h[t-1]``: ``rho`` is
    a 1-D array of the ``T`` step sizes, ``h`` one width or ``T`` of them.
    The batch objective ``F`` must be defined on the probes ``x_t +- h_t * y``,
    which may leave ``X``.  Returns the plain average ``mean(x_1..x_T)``, the
    step-weighted average ``sum(rho_t x_t)/sum(rho_t)`` and the best probe
    seen.  Exactly ``2*K*T`` objective evaluations are performed, and
    identical seeds reproduce the record bit for bit.  The averages at an
    earlier ``t`` are those of a run of ``rho[:t]`` from the same start and rng.

    ``x1`` of shape ``(S, n)`` starts S runs, with ``rng`` a sequence of S
    seeds or generators, one per run; they advance in lockstep and the result
    is a lockstep record (see :class:`RunRecord`).  Each run's directions come
    from its own generator, drawn per chunk of iterations in run order (at
    most ``_DRAW_ROWS`` rows per run and call, ``K*T`` in all), and each
    iteration evaluates all ``S * 2K`` probes in one call.  A run's record
    equals that of the same run alone, bit for bit, when ``F`` and
    ``X.project`` treat rows independently.  A start ``(n,)`` is the case
    S = 1.  ``kernel`` names the direction law, ``"sphere"`` or ``"gaussian"``;
    a :class:`Kernel`, whose width ``h`` would override, raises ``TypeError``.
    A ``rho`` that is not 1-D and non-empty, an ``h`` of another length, a
    step size or a width that is not positive and finite raises
    ``ValueError`` before any evaluation, as a bad start does.
    """
    rhos = np.asarray(rho, dtype=float)
    T = len(rhos) if rhos.ndim == 1 else 0
    if T < 1 or np.ndim(h) and np.shape(h) != (T,):
        raise ValueError(f"need a 1-D rho of T >= 1 step sizes and one width h or T of them, "
                         f"got shapes {rhos.shape} and {np.shape(h)}")
    hs = np.broadcast_to(np.asarray(h, dtype=float), (T,))
    if K < 1:
        raise ValueError("batch size K must be at least 1")
    x, rng, single = _lockstep_starts(x1, rng)
    if not np.all(np.isfinite(x)) or \
            np.any(np.linalg.norm(x - X.project(x), axis=-1) > ITERATE_TOL):
        raise ValueError("starting point x1 must lie in the projection set X")
    if not np.all((rhos > 0) & (rhos < np.inf)):
        raise ValueError("step sizes rho_t must be positive and finite")
    if not np.all((hs > 0) & (hs < np.inf)):  # a coupled width is L * rho / K, L maybe 0
        raise ValueError("kernel width h must be positive and finite")
    if isinstance(kernel, Kernel):
        raise TypeError(f"kernel must name a direction law such as {kernel.variant!r}, not be a "
                        f"Kernel: its width h = {kernel.h} would be ignored, as h sets every width")
    draw = Kernel(kernel, 1.0).sample_directions
    gens, seeds = zip(*map(_as_rng, rng))

    start = time.perf_counter()
    S, dim = x.shape
    chunk = max(1, _DRAW_ROWS // K)
    # a chunk's iterates x_t and products rho_t * x_t, after a row 0 that
    # carries their sums over the chunks before (zero at first).  numpy sums
    # the outer axis of a C-ordered array in order, as running sums would,
    # while a row holds more than one number; a lone column (S = n = 1)
    # would be summed pairwise, which the pair axis rules out
    hist = np.zeros((min(chunk, T) + 1, 2, S, dim))
    vals = np.empty((min(chunk, T), S, 2 * K))
    best_value, best_point, x_first = np.full(S, np.inf), x.copy(), x.copy()

    for t, rho, h in zip(range(1, T + 1), rhos.tolist(), hs.tolist()):
        j = (t - 1) % chunk
        if j == 0:
            rows = min(chunk, T - t + 1) * K
            block = np.empty((S, rows // K, K, dim))
            for s, g in enumerate(gens):
                draw(dim, rows, g, out=block[s].reshape(rows, dim))
        Y = block[:, j]
        hist[j + 1, 0] = x
        try:
            vals[j], eta = _estimate(F, x, h, Y)
        except EvaluationError as err:
            raise err.with_context(iteration=t) from None
        x = X.project(x - rho * eta)
        if j + 1 == block.shape[1]:  # the chunk's last iteration
            done, xs = slice(t - j - 1, t), hist[1:j + 2, 0]
            np.multiply(rhos[done, None, None], xs, out=hist[1:j + 2, 1])
            hist[0] = np.add.reduce(hist[:j + 2], axis=0)
            _fold_best_probe(vals[:j + 1], xs, hs[done], block, best_value, best_point)

    record = RunRecord(
        x_first=x_first,
        x_last=x,
        plain_average=hist[0, 0] / T,
        # accumulate adds in order; a 1-D reduce would sum pairwise
        weighted_average=hist[0, 1] / np.add.accumulate(rhos)[-1],
        best_point=best_point,
        best_value=best_value,
        evaluations=2 * K * T,
        iterations=T,
        seed=seeds,
        wall_time=time.perf_counter() - start,
    )
    return record.run(0) if single else record


def _fold_best_probe(vals, xs, hs, Y, best_value, best_point):
    """Fold a chunk's probe values into each run's best value and point, in place.

    ``vals`` ``(C, S, 2K)`` holds the values of the chunk's iterations, ``xs``
    ``(C, S, n)`` their iterates, ``hs`` their widths and ``Y`` ``(S, C, K, n)``
    their directions.  The result is that of per-iteration tracking: an
    iteration's value is ``np.minimum.reduce`` of its ``2K`` values, the first
    iteration and then the first probe (plus probes before minus probes) at
    the smallest value win, and they replace a run's best only when strictly
    smaller.  The winning probe is rebuilt as ``x_t +- h_t * y``.
    """
    mins = np.minimum.reduce(vals, axis=2)
    i = mins.argmin(axis=0)
    runs = np.arange(len(i))
    value = mins[i, runs]
    k = vals[i, runs].argmin(axis=1)
    K = Y.shape[2]
    x, hy = xs[i, runs], hs[i, None] * Y[runs, i, k % K]
    better = value < best_value
    best_value[better] = value[better]
    best_point[better] = np.where((k < K)[:, None], x + hy, x - hy)[better]


def estimate_lipschitz(F: Callable, region: FeasibleSet, scale: float,
                       rng, *, samples: int = 1000, safety: float = 1.5) -> float:
    """Estimate a Lipschitz constant from random symmetric difference quotients.

    Draws `samples` base points in `region` and sphere directions, takes the
    largest quotient ``|F(x + scale*y) - F(x - scale*y)| / (2*scale)`` and
    multiplies by `safety`.  An estimate at the smoothing scale of interest is
    what the step-size rules need.  All plus points, then all minus points,
    go to the batch objective ``F`` in one stacked call; a non-finite value
    raises :class:`EvaluationError` naming the point that produced it.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    gen, _ = _as_rng(rng)
    pts = region.sample(samples, gen)
    dirs = Kernel.sphere(scale).sample_directions(pts.shape[1], samples, gen)
    step = scale * dirs
    with np.errstate(over="ignore"):  # an objective that overflows raises EvaluationError
        vals = _evaluate(F, np.concatenate([pts + step, pts - step]))
    quotients = np.abs(vals[:samples] - vals[samples:]) / (2.0 * scale)
    return safety * float(quotients.max())

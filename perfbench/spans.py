"""Spans at the library's layer boundaries, for the benchmark's traced run.

``Tracer.install`` wraps public functions and methods of the library, patched
on the module or class the caller looks them up from, and ``uninstall`` puts
the originals back.  Each call records one span: id, name, start, end, parent
span and thread, the thread's CPU time at start and end, and one number of
payload (rows, iterations, ...).  Spans stay in memory until the run ends.

Span names are ``<layer>.<function>``; the layers are the library's modules
(``problems``, ``penalty``, ``smoothing``, ``optimizer``, ``continuation``,
``harness.config``, ``harness.runner``, ``harness.validate``).

``sgd_run`` reaches ``smoothing`` through the module-private
``_two_point_batch``, which is not wrapped.  ``analyse`` derives a
``smoothing.two_point`` span for it instead: inside ``sgd_run`` it runs from
the start of a direction draw to the end of the last objective call that
follows it before the next projection.  Its self time is the probe
arithmetic and the finiteness check of the first probe batch; the entry
conversion and the check of the second batch stay in ``sgd_run``'s self time.

``contains`` is counted, not spanned: a span would cost about as much as the
2 µs call, and its time stays in the enclosing penalty span.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
from time import perf_counter, thread_time

import numpy as np

_get_ident = threading.get_ident


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def _rows(args, kwargs, out):
    return int(np.shape(args[0])[0])


def _count(args, kwargs, out):
    return int(args[2] if len(args) > 2 else kwargs["count"])


def _iterations(args, kwargs, out):
    return int(out.iterations)


def _moved(position):
    """Payload: 1 when the call returned another point than argument ``position``."""
    def moved(args, kwargs, out):
        return 0 if np.array_equal(out, args[position]) else 1
    return moved


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (sid, name, t0, t1, parent, thread, payload, cpu0, cpu1)
        self.root = -1                # parent of spans started on a thread with no open span
        self.penalty_sets: set[int] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._contains: list[list[int]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.contains = counter = [0]
            with self._lock:
                self._contains.append(counter)
            return self._local.stack

    def contains_calls(self) -> int:
        return sum(c[0] for c in self._contains)

    def _span(self, name, fn, payload=None, namer=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent, parent_name = stack[-1] if stack else (tracer.root, "")
            span_name = namer(args, parent_name) if namer else name
            sid = next(tracer._ids)
            stack.append((sid, span_name))
            ok = False
            c0 = thread_time()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                value = (payload(args, kwargs, out) if payload else 1) if ok else 0
                tracer.spans.append((sid, span_name, t0, t1, parent, _get_ident(), value, c0, c1))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a top-level span, the cause of spans on pool threads."""
        stack = self._stack()
        sid = next(self._ids)
        self.root = sid
        stack.append((sid, name))
        c0 = thread_time()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            c1 = thread_time()
            stack.pop()
            self.spans.append((sid, name, t0, t1, -1, _get_ident(), 1, c0, c1))
            self.root = -1

    def top(self, name, fn):
        """``fn`` recorded as a top-level span on every call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def install(self):
        from smoothopt import continuation, penalty, smoothing
        from smoothopt.harness import runner, validate

        span = self._span
        make_problem = runner.make_problem

        def traced_make_problem(*args, **kwargs):
            p = make_problem(*args, **kwargs)
            batch = p.objective_batch
            return dataclasses.replace(
                p, objective=span("problems.objective", p.objective),
                objective_batch=None if batch is None
                else span("problems.objective_batch", batch, _rows))

        penalized_function = runner.penalized_function

        def traced_penalized_function(f, feasible, spec):
            self.penalty_sets.add(id(feasible))
            return penalized_function(f, feasible, spec)

        calibration = validate.calibration

        def traced_calibration(*args, **kwargs):
            cal = calibration(*args, **kwargs)
            return dataclasses.replace(cal, fn=span("problems.objective", cal.fn),
                                       batch=span("problems.objective_batch", cal.batch, _rows))

        def project_name(args, parent_name):
            if id(args[0]) in self.penalty_sets:
                return "penalty.project"
            return (layer_of(parent_name) if parent_name else "harness.runner") + ".project"

        self._patch(runner, "make_problem", traced_make_problem)
        self._patch(runner, "penalized_function", traced_penalized_function)
        self._patch(runner, "build_problem", span("harness.runner.build_problem", runner.build_problem))
        self._patch(runner, "resolve_plan", span("harness.runner.resolve_plan", runner.resolve_plan))
        self._patch(runner, "estimate_lipschitz",
                    span("optimizer.estimate_lipschitz", runner.estimate_lipschitz))
        self._patch(runner, "successive_smoothing",
                    span("continuation.successive_smoothing", runner.successive_smoothing))
        self._patch(continuation, "sgd_run", span("optimizer.sgd_run", continuation.sgd_run, _iterations))
        self._patch(penalty, "penalize", span("penalty.penalize", penalty.penalize))
        self._patch(penalty, "ray_retraction",
                    span("penalty.ray_retraction", penalty.ray_retraction, _moved(2)))
        for cls in (penalty.Box, penalty.Ball):
            self._patch(cls, "project", span(None, cls.project, _moved(1), namer=project_name))
            self._patch(cls, "contains", self._counted(cls.contains))
        self._patch(smoothing.Kernel, "sample_directions",
                    span("smoothing.sample_directions", smoothing.Kernel.sample_directions, _count))
        self._patch(validate, "calibration", traced_calibration)
        self._patch(validate, "grad_estimate", span("smoothing.grad_estimate", validate.grad_estimate))
        self._patch(validate, "quadrature_gradient",
                    span("harness.validate.quadrature_gradient", validate.quadrature_gradient))

    def _counted(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._stack()
            tracer._local.contains[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output --------------------------------------------------------------

    def save(self, path):
        """Write the spans as arrays: names are indices into ``names``."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 9
        np.savez_compressed(
            path, sid=np.array(cols[0], dtype=np.int64),
            name=np.array([index[n] for n in cols[1]], dtype=np.int32),
            names=np.array(names), start=np.array(cols[2]), end=np.array(cols[3]),
            parent=np.array(cols[4], dtype=np.int64), thread=np.array(cols[5], dtype=np.int64),
            payload=np.array(cols[6], dtype=np.int64),
            cpu_start=np.array(cols[7]), cpu_end=np.array(cols[8]))


# ---------------------------------------------------------------------------
# analysis

_OBJECTIVE = ("problems.objective", "problems.objective_batch", "penalty.penalize")


def _two_point_spans(sid, name, t0, t1, parent, tid, payload, c0, c1):
    """Derive ``smoothing.two_point`` spans inside every ``sgd_run`` (see module doc)."""
    by_parent: dict[int, list[int]] = {}
    runs = {i for i, n in enumerate(name) if n == "optimizer.sgd_run"}
    for i in sorted(range(len(name)), key=t0.__getitem__):
        if parent[i] in runs:
            by_parent.setdefault(parent[i], []).append(i)
    for run, kids in by_parent.items():
        group: list[int] = []
        for i in kids + [None]:
            if i is not None and (name[i] in _OBJECTIVE and group):
                group.append(i)
                continue
            if len(group) > 1:
                new = len(name)
                name.append("smoothing.two_point")
                t0.append(t0[group[0]])
                t1.append(t1[group[-1]])
                c0.append(c0[group[0]])
                c1.append(c1[group[-1]])
                parent.append(run)
                tid.append(tid[run])
                payload.append(len(group) - 1)
                sid.append(new)
                for k in group:
                    parent[k] = new
            group = [i] if i is not None and name[i] == "smoothing.sample_directions" else []


def columns(spans) -> list[list]:
    """Span columns in id order, with the derived ``smoothing.two_point`` spans added."""
    cols = [list(c) for c in zip(*sorted(spans))] if spans else [[] for _ in range(9)]
    _two_point_spans(*cols)
    return cols


def cpu_self(cols) -> np.ndarray:
    """Self time of every span: its thread CPU time minus that of its children on the same thread.

    CPU time keeps the layers apart however the runner's two threads
    interleave: a call that waits for the other thread does not count the
    other thread's work as its own.
    """
    sid, name, t0, t1, parent, tid, payload, c0, c1 = cols
    out = np.subtract(c1, c0)
    for i, p in enumerate(parent):
        if p >= 0 and tid[p] == tid[i]:
            out[p] -= c1[i] - c0[i]
    return out


def analyse(tracer: Tracer, workers: int) -> dict:
    """Per-layer metrics of one traced unit (see the README for each name)."""
    cols = columns(tracer.spans)
    sid, name, t0, t1, parent, tid, payload, c0, c1 = cols
    n = len(name)
    cpu = cpu_self(cols)
    pay = np.array(payload, dtype=float)
    by_name: dict[str, list[int]] = {}
    for i, x in enumerate(name):
        by_name.setdefault(x, []).append(i)

    def spans(pred):
        return [i for x, idx in by_name.items() if pred(x) for i in idx]

    def named(*names):
        return [i for x in names for i in by_name.get(x, [])]

    def busy(idx):
        return float(cpu[idx].sum()) if idx else 0.0

    # self time of the subtree under the nearest enclosing span of these kinds
    kinds = ("optimizer.estimate_lipschitz", "harness.validate.quadrature_gradient",
             "smoothing.grad_estimate")
    label = [-1] * n
    for i in sorted(range(n), key=lambda i: (t0[i], -t1[i])):
        label[i] = i if name[i] in kinds else (label[parent[i]] if parent[i] >= 0 else -1)
    inclusive = dict.fromkeys(kinds, 0.0)
    oracle_rows = 0
    for i in range(n):
        if label[i] >= 0:
            kind = name[label[i]]
            inclusive[kind] += cpu[i]
            if kind == kinds[1] and name[i].startswith("problems."):
                oracle_rows += payload[i]

    problems = spans(lambda x: x.startswith("problems."))
    retractions = named("penalty.ray_retraction")
    projects = named("optimizer.project")
    runs = named("optimizer.sgd_run")
    seeds = named("continuation.successive_smoothing")
    roots = [i for i in range(n) if parent[i] < 0]
    unit = (max(t1[i] for i in roots) - min(t0[i] for i in roots)) if roots else 0.0
    overlap = io_s = 0.0
    if seeds:
        first, last = min(t0[i] for i in seeds), max(t1[i] for i in seeds)
        overlap = sum(t1[i] - t0[i] for i in seeds) / (last - first)
        # the runner's own time after the last traced call inside it
        root = named("harness.runner.execute_config")[0]
        io_s = t1[root] - max(t1[i] for i in range(n) if i != root and parent[i] >= 0)

    def share(idx):
        return float(pay[idx].mean()) if idx else 0.0

    return {
        "problems.calls": len(problems),
        "problems.rows": int(pay[problems].sum()),
        "problems.busy_s": busy(problems),
        "problems.us_per_call": 1e6 * busy(problems) / len(problems) if problems else 0.0,
        "penalty.calls": len(named("penalty.penalize")),
        "penalty.busy_s": busy(spans(lambda x: layer_of(x) == "penalty")),
        "penalty.contains_per_retraction":
            tracer.contains_calls() / len(retractions) if retractions else 0.0,
        "penalty.infeasible_share": share(retractions),
        "penalty.project_calls": len(named("penalty.project")),
        "smoothing.draw_rows": int(pay[named("smoothing.sample_directions")].sum()),
        "smoothing.draw_busy_s": busy(named("smoothing.sample_directions")),
        "smoothing.self_s": busy(named("smoothing.two_point", "smoothing.grad_estimate")),
        "optimizer.iterations": int(pay[runs].sum()),
        "optimizer.self_s": busy(runs),
        "optimizer.project_busy_s": busy(projects),
        "optimizer.project_active_share": share(projects),
        "optimizer.lipschitz_s": inclusive["optimizer.estimate_lipschitz"],
        "continuation.stages": sum(1 for i in runs if parent[i] >= 0
                                   and name[parent[i]] == "continuation.successive_smoothing"),
        "continuation.self_s": busy(spans(lambda x: layer_of(x) == "continuation")),
        "harness.config.parse_s": busy(spans(lambda x: layer_of(x) == "harness.config")),
        "harness.runner.build_s": busy(named("harness.runner.build_problem",
                                             "harness.runner.resolve_plan")),
        "harness.runner.workers": workers,
        "harness.runner.overlap": overlap,
        "harness.runner.io_s": io_s,
        "harness.validate.oracle_s": inclusive["harness.validate.quadrature_gradient"],
        "harness.validate.estimator_s": inclusive["smoothing.grad_estimate"],
        "harness.validate.oracle_rows": int(oracle_rows),
        "trace.unit_s": unit,
        "trace.cpu_sum_s": float(cpu.sum()),
        "trace.spans": n,
    }

"""Benchmark of the smoothopt library: runs one workload and prints one JSON result.

    python3 perfbench/run.py --workload polygon-n4 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (see ``perfbench/README.md``).  The
line before the result describes the run: commit, machine, worker count.
Every output is checked against ``perfbench/reference.json``; an operation
that raises or differs from it counts as failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads as W

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "target_hit_rate": "ratio",
    "ok_share": "ratio",
}
PER_LAYER = {
    "problems.calls": "count",
    "problems.rows": "count",
    "problems.busy_s": "s",
    "problems.us_per_call": "us",
    **{f"problems.us_per_row.n{n}.r{rows}": "us" for n in (4, 20) for rows in (4, 40, 400)},
    "penalty.calls": "count",
    "penalty.busy_s": "s",
    "penalty.contains_per_retraction": "count",
    "penalty.infeasible_share": "ratio",
    "penalty.project_calls": "count",
    "smoothing.draw_rows": "count",
    "smoothing.draw_busy_s": "s",
    "smoothing.self_s": "s",
    "optimizer.iterations": "count",
    "optimizer.self_s": "s",
    "optimizer.project_busy_s": "s",
    "optimizer.project_active_share": "ratio",
    "optimizer.lipschitz_s": "s",
    "continuation.stages": "count",
    "continuation.self_s": "s",
    "harness.config.parse_s": "s",
    "harness.runner.build_s": "s",
    "harness.runner.workers": "count",
    "harness.runner.overlap": "ratio",
    "harness.runner.io_s": "s",
    "harness.runner.io_bytes": "bytes",
    "harness.validate.oracle_s": "s",
    "harness.validate.estimator_s": "s",
    "harness.validate.oracle_rows": "count",
    "trace.unit_s": "s",
    "trace.cpu_sum_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
SETUP_PROBES = 5     # at least, and more until the probes have run this long:
SETUP_SECONDS = 3.0  # one takes 0.3 to 1.5 s with the interpreter's start
WORK = W.ROOT / ".perfbench"


def probe_setup(wl, index: int, size: str) -> W.UnitResult:
    """One set-up in a fresh interpreter, so that the import is part of it.

    A probe is an operation of the run: one that fails is counted as failed,
    with the time until it failed.
    """
    cmd = [sys.executable, str(W.HERE / "setup_probe.py"), wl.name, str(index), size]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=W.ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode == 0:
            seconds = sum(json.loads(proc.stdout.splitlines()[-1]).values())
            return W.UnitResult(seconds, 1, 0, 0, 0)
        error = f"set-up probe exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        error = f"set-up probe: {exc!r}"
    return W.UnitResult(time.perf_counter() - t0, 1, 1, 0, 0, error=error)


def with_setup_time(unit):
    """Run ``unit`` and time the set-up ``execute_config`` does inside it.

    That set-up is its calls of ``build_problem`` and ``resolve_plan``, which
    it looks up on the runner module; they are wrapped there for the unit, two
    calls of a timer each.  Returns the unit's result and those seconds (0 for
    the suite, which calls neither).
    """
    from smoothopt.harness import runner
    spent = []
    originals = {name: getattr(runner, name) for name in ("build_problem", "resolve_plan")}

    def timed(fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - t0)
        return call

    for name, fn in originals.items():
        setattr(runner, name, timed(fn))
    try:
        result = unit()
    finally:
        for name, fn in originals.items():
            setattr(runner, name, fn)
    return result, sum(spent)


def repeat(step, seconds: float) -> list:
    """Run ``step`` at least once, and again while the next run still ends within ``seconds``.

    ``step`` returns a tuple of units; a unit that raised ends the repetition.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if (any(u.error for u in results[-1])
                or elapsed * (len(results) + 1) / len(results) > seconds):
            return results


def unit_step(wl, index, size, workdir, reference, tracer=None):
    """One unit of the workload through the library's public entry point."""
    from smoothopt.harness import config, runner, validate
    clock = time.perf_counter
    if wl.kind == "run":
        parse, execute = config.parse_config, runner.execute_config
        if tracer is not None:
            parse = tracer.top("harness.config.parse_config", parse)
            execute = tracer.top("harness.runner.execute_config", execute)
        return lambda: wl.run_unit(index, size, workdir, reference, parse, execute, clock)
    suite = validate.gradient_suite
    if tracer is not None:
        suite = tracer.top("harness.validate.gradient_suite", suite)
    return lambda: wl.run_unit(index, size, workdir, reference, suite, clock)


def end_to_end(wl, index, size, seconds, workdir, reference):
    """Units and set-up probes, and the end-to-end metrics over both."""
    unit = unit_step(wl, index, size, workdir, reference)
    setups = []

    def step():
        result, setup = with_setup_time(unit)
        setups.append(setup)
        return (result,)

    units = [u for (u,) in repeat(step, seconds)]
    probes, start = [], time.perf_counter()
    while len(probes) < SETUP_PROBES or time.perf_counter() - start < SETUP_SECONDS:
        probes.append(probe_setup(wl, index, size))
        if probes[-1].error:
            break
    wall = statistics.median(u.seconds - s for u, s in zip(units, setups))
    operations = units + probes
    metrics = {
        "setup_s": statistics.median(p.seconds for p in probes),
        "wall_s": wall,
        "evals_per_s": statistics.median(u.rows for u in units) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "target_hit_rate": sum(u.hits for u in units) / sum(u.operations for u in units),
        "ok_share": 1.0 - (sum(u.failed for u in operations)
                           / sum(u.operations for u in operations)),
    }
    return units, probes, metrics


def us_per_row(index: int) -> dict:
    """Polygon objective cost per row at 4, 40 and 400 rows, for n = 4 and n = 20."""
    from smoothopt.problems import make_problem
    import numpy as np
    rng = np.random.default_rng(index)
    out = {}
    for n in (4, 20):
        problem = make_problem("polygon", n=n)
        f = problem.objective_batch
        for rows in (4, 40, 400):
            V = problem.domain.sample(rows, rng)
            t0 = time.perf_counter()
            f(V)
            calls = max(1, int(0.02 / max(time.perf_counter() - t0, 1e-6)))
            rounds = []
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(calls):
                    f(V)
                rounds.append((time.perf_counter() - t0) / calls)
            out[f"problems.us_per_row.n{n}.r{rows}"] = 1e6 * statistics.median(rounds) / rows
    return out


def traced(wl, index, size, seconds, workdir, reference, workers):
    """Pairs of an untraced and a traced unit; per-layer metrics from the traced ones."""
    from spans import Tracer, analyse
    layers, last = [], None

    def step():
        nonlocal last
        plain = unit_step(wl, index, size, workdir, reference)()
        tracer = Tracer()
        tracer.install()
        try:
            with_trace = unit_step(wl, index, size, workdir, reference, tracer)()
        finally:
            tracer.uninstall()
        layer = analyse(tracer, workers)
        layer["harness.runner.io_bytes"] = sum(
            p.stat().st_size for p in (workdir / wl.name).glob("*")) if wl.kind == "run" else 0
        layers.append(layer)
        last = tracer
        return plain, with_trace

    pairs = repeat(step, seconds)
    WORK.mkdir(exist_ok=True)
    last.save(WORK / f"trace-{wl.name}.npz")
    metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    metrics["trace.untraced_s"] = statistics.median(p.seconds for p, _ in pairs)
    metrics["trace.traced_s"] = statistics.median(t.seconds for _, t in pairs)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    metrics.update(us_per_row(index))
    return [u for pair in pairs for u in pair], [], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces acceptance criteria 2 and 4")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure for about this long (at least one unit)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=W.SIZES, default="full",
                        help="'tiny' is the self-test's size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    W.use_checkout_source()

    import numpy as np
    from smoothopt.harness import runner

    wl = W.WORKLOADS[args.workload]
    index = W.input_index(args.seed)
    reference_file = W.load_reference()
    reference = W.reference_for(reference_file, wl.name, args.size, index)
    workers = 0
    if wl.kind == "run":
        workers = runner.worker_count(wl.seeds[args.size])
    workdir = WORK / f"work-{os.getpid()}"
    try:
        if args.trace:
            units, probes, metrics = traced(wl, index, args.size, args.seconds, workdir, reference,
                                    workers)
            names = PER_LAYER
        else:
            units, probes, metrics = end_to_end(wl, index, args.size, args.seconds, workdir, reference)
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    operations = units + probes
    problems = sorted({u.error for u in operations if u.error})
    if reference is None:
        problems.append(f"no reference for {wl.name} {args.size} input {index}")
    attempted = sum(u.operations for u in operations)
    failed = sum(u.failed for u in operations)
    meta = {
        "workload": wl.name, "seed": args.seed, "input_index": index, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "unit_seconds": [u.seconds for u in units],
        "setup_seconds": [p.seconds for p in probes],
        "git_sha": W.git_sha(), "source_sha256": W.source_sha256(),
        "reference_commit": reference_file.get("commit"),
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": np.__version__,
        "workers": workers, "SMOOTHOPT_THREADS": os.environ.get("SMOOTHOPT_THREADS"),
        "problems": problems,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

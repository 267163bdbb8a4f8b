"""Benchmark runner: executes a config over its seed list and serializes results.

Each seed owns an independent random substream derived from its seed alone.
All seeds of a config run in lockstep on the calling thread, one stacked
objective call per SGD iteration for all of them, and each seed's results
are bit-identical to a run of that seed alone.  The summary CSV is written
once after all runs finish, with full round-trip float precision; per-run
records are self-describing JSON documents written atomically.

Wall-clock times live in the per-run records only, and are those of the
lockstep batch, shared by its seeds: the summary CSV must reproduce
bit-for-bit across re-runs with identical seeds.
"""
from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from ..continuation import (ContinuationResult, SmoothingPlan, StageResult,
                            geometric_widths, successive_smoothing)
from ..optimizer import Schedule, StepRule, WidthRule, estimate_lipschitz, sgd_run
from ..penalty import PenaltySpec, penalized_batch, penalized_function
from ..problems import ProblemInstance, make_problem
from ..smoothing import EvaluationError
from .config import RunConfig, constraint_set, projection_set

__all__ = ["RunOutcome", "execute_config", "build_problem", "resolve_plan",
           "resolve_schedule", "CSV_COLUMNS", "worker_count"]

CSV_COLUMNS = [
    "problem", "n", "seed", "stages", "iterations_per_stage", "total_iterations",
    "batch_size", "Func. calc.", "Max. achived", "value_at_weighted_average",
    "Ideal value",
]


@dataclass
class RunOutcome:
    seed: int
    row: dict
    record: dict
    record_path: Path | None = None


def worker_count(n_runs: int) -> int:
    """Threads that execute a config's runs: 1, since its seeds run in lockstep."""
    return 1


def _fmt(value) -> str:
    """Full round-trip precision for floats; plain text otherwise."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def build_problem(cfg: RunConfig) -> ProblemInstance:
    """Problem instance for a config, wrapping in a penalty when asked to."""
    params = dict(cfg.problem_params)
    n = params.pop("n", None)
    problem = make_problem(cfg.problem_name, n=n, **params)
    if cfg.constraint is None:
        return problem
    feasible = constraint_set(cfg.constraint)
    pen = cfg.constraint["penalty"]
    spec = PenaltySpec(kind=pen.get("kind", "distance"), M=float(pen.get("M", 10.0)),
                       anchor=pen.get("anchor"))
    domain = projection_set(cfg.problem_name, n, cfg.constraint)
    return ProblemInstance(
        name=problem.name, dimension=problem.dimension,
        objective=penalized_function(problem.objective, feasible, spec),
        objective_batch=penalized_batch(problem.objective_batch, feasible, spec),
        domain=domain,
        sample_start=lambda rng: feasible.project(domain.sample(1, rng)[0]),
        report=problem.report, ideal_value=problem.ideal_value,
        lipschitz=None, parameters=problem.parameters,
    )


def _resolve_L(cfg: RunConfig, problem: ProblemInstance, scale: float) -> float:
    if problem.lipschitz is not None:
        return problem.lipschitz
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seeds[0], 0x11F5)))
    return estimate_lipschitz(problem.objective_batch, problem.domain, scale, rng)


def _step_rule(step: dict, *, h: float, D_auto: float, L: float, n: int, K: int,
               T: int) -> StepRule:
    kind = step["kind"]
    if kind == "constant":
        return StepRule.constant(float(step["rho"]))
    if kind == "constant-scaled":
        return StepRule.constant(float(step["alpha"]) * h / L)
    D = D_auto if step.get("D", "auto") == "auto" else float(step["D"])
    Lval = L if step.get("L", "auto") == "auto" else float(step["L"])
    C = float(step.get("C", 1.0))
    if kind == "sphere-decaying":
        return StepRule.sphere_decaying(D=D, L=Lval, n=n, K=K, C=C)
    if kind == "sphere-fixed":
        return StepRule.sphere_fixed(D=D, L=Lval, n=n, K=K, C=C, T=T)
    if kind == "gaussian-decaying":
        return StepRule.gaussian_decaying(D=D, L=Lval, n=n, K=K)
    if kind == "gaussian-fixed":
        return StepRule.gaussian_fixed(D=D, L=Lval, n=n, K=K, T=T)
    if kind == "gaussian-vanishing":
        return StepRule.gaussian_vanishing(D=D, L=Lval, n=n, K=K)
    raise ValueError(f"unsupported step kind {kind!r}")


def resolve_plan(cfg: RunConfig, problem: ProblemInstance) -> SmoothingPlan:
    """Turn the config's plan section into a concrete :class:`SmoothingPlan`."""
    lower, upper = problem.domain.bounding_box()
    diameter = float(np.linalg.norm(upper - lower))
    h0 = 0.5 * diameter if cfg.plan["h0"] == "auto" else float(cfg.plan["h0"])
    widths = geometric_widths(h0, int(cfg.plan["stages"]), float(cfg.plan["decay"]))
    L = _resolve_L(cfg, problem, scale=h0)
    steps = tuple(
        _step_rule(cfg.plan["step"], h=h, D_auto=2.0 * h, L=L, n=problem.dimension,
                   K=cfg.batch_size, T=cfg.iterations)
        for h in widths)
    return SmoothingPlan(widths=widths, steps=steps, iterations=cfg.iterations,
                         batch_size=cfg.batch_size, ravine_beta=float(cfg.plan["beta"]),
                         couple_widths=cfg.plan["couple_widths"])


def resolve_schedule(cfg: RunConfig, problem: ProblemInstance) -> Schedule:
    lower, upper = problem.domain.bounding_box()
    diameter = float(np.linalg.norm(upper - lower))
    width_cfg = cfg.schedule["width"]
    h_ref = float(width_cfg.get("h", 0.0)) or 0.5 * diameter
    L = _resolve_L(cfg, problem, scale=h_ref)
    step = _step_rule(cfg.schedule["step"], h=h_ref, D_auto=diameter, L=L,
                      n=problem.dimension, K=cfg.batch_size, T=cfg.iterations)
    if width_cfg["kind"] == "fixed":
        width = WidthRule.fixed(float(width_cfg["h"]))
    else:
        width = WidthRule.coupled(L=L, K=cfg.batch_size)
    return Schedule(step=step, width=width)


def _run_seeds(cfg: RunConfig, problem: ProblemInstance, plan: SmoothingPlan | None,
               schedule: Schedule | None) -> list[RunOutcome]:
    """Run every seed of the config in one lockstep batch, in seed order."""
    starts, gens = [], []
    for seed in cfg.seeds:
        start_ss, opt_ss = np.random.SeedSequence(seed).spawn(2)
        if isinstance(cfg.start, str) and cfg.start == "auto":
            starts.append(problem.sample_start(np.random.default_rng(start_ss)))
        else:
            starts.append(np.asarray(cfg.start, dtype=float))
        gens.append(np.random.default_rng(opt_ss))
    x0 = np.array(starts)
    F = problem.objective_batch
    t0 = time.perf_counter()

    try:
        if plan is not None:
            result = successive_smoothing(F, problem.domain, plan, cfg.kernel, x0, gens,
                                          record_trajectory=cfg.record_trajectory)
        else:
            record = sgd_run(F, problem.domain, x0, schedule, cfg.kernel, cfg.batch_size,
                             cfg.iterations, gens, record_trajectory=cfg.record_trajectory)
            h = schedule.width.h if schedule.width.kind == "fixed" else None
            stage = StageResult(index=0, h=h, start=x0, record=record,
                                returned_point=record.weighted_average,
                                best_value=record.best_value, best_so_far=record.best_value)
            result = ContinuationResult(best_point=record.best_point,
                                        best_value=record.best_value,
                                        stages=[stage], evaluations=record.evaluations)
    except EvaluationError as err:
        raise err.with_context(seed=cfg.seeds[err.run]) from None

    runs = [result.run(s) for s in range(len(cfg.seeds))]
    # one extra diagnostic evaluation per seed, on top of the 2*K*T*stages accounting
    avg_values = F(np.array([run.stages[-1].returned_point for run in runs])).tolist()
    wall = time.perf_counter() - t0

    label_n = dict(problem.parameters).get("n", problem.dimension)
    outcomes = []
    for seed, x_start, run, avg_value in zip(cfg.seeds, x0, runs, avg_values):
        n_stages = len(run.stages)
        row = {
            "problem": problem.name,
            "n": label_n,
            "seed": seed,
            "stages": n_stages,
            "iterations_per_stage": cfg.iterations,
            "total_iterations": cfg.iterations * n_stages,
            "batch_size": cfg.batch_size,
            "Func. calc.": run.evaluations,
            "Max. achived": problem.report(run.best_value),
            "value_at_weighted_average": problem.report(avg_value),
            "Ideal value": problem.ideal_value,
        }
        stages = [{
            "index": st.index, "h": st.h,
            "start": st.start.tolist(),
            "returned_point": st.returned_point.tolist(),
            "best_value": st.best_value,
            "best_so_far": st.best_so_far,
            "wall_time": st.record.wall_time,
        } for st in run.stages]
        record_doc = {
            "format": "smoothopt-run/1",
            "config": cfg.raw,
            "seed": seed,
            "start": x_start.tolist(),
            "stages": stages,
            "best_point": run.best_point.tolist(),
            "best_value": run.best_value,
            "reported_best": problem.report(run.best_value),
            "value_at_weighted_average": problem.report(avg_value),
            "evaluations": run.evaluations,
            "diagnostic_evaluations": 1,
            "wall_time": wall,
        }
        outcomes.append(RunOutcome(seed=seed, row=row, record=record_doc))
    return outcomes


def _write_atomic(path: Path, text: str):
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)


def execute_config(cfg: RunConfig) -> tuple[Path, list[RunOutcome]]:
    """Run every seed of a config; returns the CSV path and per-run outcomes."""
    problem = build_problem(cfg)
    plan = resolve_plan(cfg, problem) if cfg.plan is not None else None
    schedule = resolve_schedule(cfg, problem) if cfg.schedule is not None else None

    outcomes = sorted(_run_seeds(cfg, problem, plan, schedule), key=lambda o: o.seed)

    out_dir = Path(cfg.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    label_n = dict(problem.parameters).get("n", problem.dimension)
    for outcome in outcomes:
        path = out_dir / f"run-{problem.name}-n{label_n}-seed{outcome.seed}.json"
        _write_atomic(path, json.dumps(outcome.record, indent=2) + "\n")
        outcome.record_path = path

    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(CSV_COLUMNS)
    for outcome in outcomes:
        writer.writerow([_fmt(outcome.row[c]) for c in CSV_COLUMNS])
    csv_path = out_dir / "results.csv"
    _write_atomic(csv_path, buf.getvalue())
    return csv_path, outcomes

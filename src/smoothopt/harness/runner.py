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
from itertools import accumulate
from pathlib import Path
import numpy as np

from ..continuation import SmoothingPlan, successive_smoothing
from ..optimizer import WidthRule, estimate_lipschitz
from ..penalty import PenaltySpec, penalized_batch, penalized_function
from ..problems import ProblemInstance, make_problem
from ..smoothing import EvaluationError
from .config import RunConfig, constraint_set, projection_set, stage_steps

__all__ = ["RunOutcome", "execute_config", "build_problem", "resolve_plan",
           "CSV_COLUMNS", "worker_count"]

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
    spec = PenaltySpec(**cfg.constraint["penalty"])
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


def resolve_plan(cfg: RunConfig, problem: ProblemInstance) -> SmoothingPlan:
    """The config's checked stages, with the Lipschitz estimate, as a :class:`SmoothingPlan`.

    A plan's coupled widths take the step rule's ``L``; a ``schedule``'s one
    coupled stage takes the estimate and names no width (``None``).  The
    estimate is taken at scale ``h0``, and where it is 0 -- no sampled pair saw
    the objective change, as at a scale below a step function's distance to
    its jump -- again at ``h_auto``, half the diameter.
    """
    plan = cfg.plan
    L = (_resolve_L(cfg, problem, scale=plan["h0"])
         or _resolve_L(cfg, problem, scale=plan["h_auto"]))
    steps = stage_steps(plan, problem.dimension, cfg.batch_size, cfg.iterations, L)
    widths, width_rule = plan["widths"], None
    if plan["couple_widths"]:
        whole = plan["mode"] == "schedule"
        width_rule = WidthRule.coupled(L=L if whole else steps[0].L, K=cfg.batch_size)
        widths = (None,) if whole else widths
    return SmoothingPlan(widths=widths, steps=steps, iterations=cfg.iterations,
                         batch_size=cfg.batch_size, ravine_beta=plan["beta"],
                         width_rule=width_rule)


def _run_seeds(cfg: RunConfig, problem: ProblemInstance, plan: SmoothingPlan) -> list[RunOutcome]:
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
        result = successive_smoothing(F, problem.domain, plan, cfg.kernel, x0, gens)
    except EvaluationError as err:
        raise err.with_context(seed=cfg.seeds[err.run]) from None

    runs = [result.run(s) for s in range(len(cfg.seeds))]
    # one extra diagnostic evaluation per seed, on top of the 2*K*T*stages accounting
    avg_values = F(np.array([run.stages[-1].weighted_average for run in runs])).tolist()
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
        best_so_far = accumulate((st.best_value for st in run.stages), min)
        stages = [{
            "index": i, "h": h,
            "start": st.x_first.tolist(),
            "returned_point": st.weighted_average.tolist(),
            "best_value": st.best_value,
            "best_so_far": best,
            "wall_time": st.wall_time,
        } for i, (h, st, best) in enumerate(zip(plan.widths, run.stages, best_so_far))]
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
    outcomes = sorted(_run_seeds(cfg, problem, resolve_plan(cfg, problem)),
                      key=lambda o: o.seed)

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

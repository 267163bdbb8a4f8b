"""Command-line interface.

Subcommands::

    smoothopt run <config.yaml>          execute a config over its seed list
    smoothopt validate <suite>           gradient | moments | rate | penalty
    smoothopt bench polygon --n <k>      polygon benchmark at desk-scale budget
    smoothopt estimate-lipschitz <name>  difference-quotient Lipschitz estimate

Exit codes: 0 success; 1 a validation check failed; 2 invalid configuration
or arguments; 3 an objective evaluation failed (non-finite value), with the
seed, stage and iteration in the message.  ``run`` and ``bench`` execute all
seeds of a config in lockstep on one thread, one stacked objective call per
SGD iteration.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from ..optimizer import estimate_lipschitz
from ..problems import make_problem, problem_names
from ..smoothing import EvaluationError
from .config import ConfigError, load_config, parse_config
from .runner import execute_config
from .validate import SUITES

# Desk-scale evaluation budgets; --full-budget switches to the reference
# evaluation counts of the original benchmark table.
_DESK_BUDGET = {3: 100_000, 4: 200_000, 20: 150_000}
_FULL_BUDGET = {3: 4_040, 4: 11_256, 20: 132_264, 50: 620_620,
                100: 2_465_232, 200: 3_521_760, 500: 15_627_906}


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        csv_path, outcomes = execute_config(cfg)
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path} and {len(outcomes)} run records")
    for o in outcomes:
        print(f"  seed {o.seed}: best {o.row['Max. achived']!r} "
              f"({o.row['Func. calc.']} evaluations)")
    return 0


def _cmd_validate(args) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"error: unknown suite {args.suite!r}; known: {sorted(SUITES)}",
              file=sys.stderr)
        return 2
    if args.checkpoints is not None and args.suite != "rate":
        print(f"error: --checkpoints is for the rate suite, not {args.suite!r}", file=sys.stderr)
        return 2
    kwargs = {} if args.checkpoints is None else {"checkpoints": tuple(args.checkpoints)}
    try:
        checks = suite(**kwargs)
    except ValueError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for check in checks:
        print(check.line())
        failed += 0 if check.passed else 1
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def _cmd_bench(args) -> int:
    if args.problem != "polygon":
        print("error: only the polygon benchmark is built in", file=sys.stderr)
        return 2
    budgets = _FULL_BUDGET if args.full_budget else _DESK_BUDGET
    budget = budgets.get(args.n)
    if budget is None:
        # scale against the nearest known row rather than refusing
        budget = int(150_000 * max(1.0, args.n / 20.0))
    stages, K = 11, args.batch_size
    iterations = max(1, budget // (2 * max(K, 1) * stages))  # parse_config rejects K < 1
    data = {
        "problem": {"name": "polygon", "n": args.n},
        "kernel": "sphere",
        "seeds": {"master": args.master_seed, "count": args.seeds},
        "budget": budget,
        "output": args.output,
        "iterations": iterations,
        "batch_size": K,
        "plan": {"h0": "auto", "stages": stages, "decay": 0.5, "beta": 0.5,
                 "step": {"kind": "constant-scaled", "alpha": 0.5}},
    }
    try:
        cfg = parse_config(data)
        csv_path, outcomes = execute_config(cfg)
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a ConfigError, or a bad value found while running
        print(f"error: {exc}", file=sys.stderr)
        return 2
    best = max(float(o.row["Max. achived"]) for o in outcomes)
    ideal = outcomes[0].row["Ideal value"]
    print(f"wrote {csv_path}")
    print(f"polygon n={args.n}: best area {best:.4f} over {len(outcomes)} seeds "
          f"(ideal {ideal:.4f}, {outcomes[0].row['Func. calc.']} evaluations/run)")
    return 0


def _cmd_estimate_lipschitz(args) -> int:
    if args.problem not in problem_names():
        print(f"error: unknown problem {args.problem!r}; known: {problem_names()}",
              file=sys.stderr)
        return 2
    try:
        problem = make_problem(args.problem, n=args.n)
        lower, upper = problem.domain.bounding_box()
        scale = 0.5 * float(np.linalg.norm(upper - lower)) if args.scale is None else args.scale
        L = estimate_lipschitz(problem.objective_batch, problem.domain, scale,
                               np.random.default_rng(args.seed), samples=args.samples)
    except ValueError as exc:  # a bad --n, --scale (not positive) or --samples (below 1)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{problem.name} (dimension {problem.dimension}): "
          f"L ~ {L:.6g} at scale {scale:.4g} "
          f"({args.samples} symmetric difference quotients, x1.5 safety)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smoothopt", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run config")
    p_run.add_argument("config", help="path to a YAML run configuration")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="run a statistical validation suite")
    p_val.add_argument("suite", help=f"one of {sorted(SUITES)}")
    p_val.add_argument("--checkpoints", type=int, nargs="+", default=None,
                       help="rate suite checkpoints (each must be >= 2)")
    p_val.set_defaults(func=_cmd_validate)

    p_bench = sub.add_parser("bench", help="run a built-in benchmark")
    p_bench.add_argument("problem", help="benchmark name (polygon)")
    p_bench.add_argument("--n", type=int, default=3, help="polygon vertex count")
    p_bench.add_argument("--seeds", type=int, default=3, help="number of seeds")
    p_bench.add_argument("--master-seed", type=int, default=1)
    p_bench.add_argument("--batch-size", type=int, default=2)
    p_bench.add_argument("--output", default="smoothopt-out")
    p_bench.add_argument("--full-budget", action="store_true",
                         help="use the reference table's evaluation counts")
    p_bench.set_defaults(func=_cmd_bench)

    p_lip = sub.add_parser("estimate-lipschitz", help="estimate a Lipschitz constant")
    p_lip.add_argument("problem", help=f"one of {problem_names()}")
    p_lip.add_argument("--n", type=int, default=None)
    p_lip.add_argument("--scale", type=float, default=None,
                       help="difference scale (default: half the domain diameter)")
    p_lip.add_argument("--samples", type=int, default=1000)
    p_lip.add_argument("--seed", type=int, default=0)
    p_lip.set_defaults(func=_cmd_estimate_lipschitz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs from a seed, one unit of work, and its check.

A workload turns an input index into the exact inputs the library receives,
runs one unit of work through a public entry point of the library
(``harness.runner.execute_config`` or ``harness.validate.gradient_suite``)
and checks every output against ``reference.json``, which was recorded on the
seed commit by ``record_reference.py``.

The benchmark seed selects the input index as ``seed % INPUT_SETS``, so every
seed has a recorded reference and a result that is not byte-identical to it
counts as a failed operation.

This module imports only the standard library at import time, so that the
set-up probe can time the library's own import.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

INPUT_SETS = 32
SIZES = ("full", "tiny")


def use_checkout_source() -> None:
    """Import the library from this checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "smoothopt" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}; "
              "run from the root of a full checkout", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def input_index(seed: int) -> int:
    return seed % INPUT_SETS


@dataclass
class UnitResult:
    """One unit of work: its time, operations, failures and target hits."""

    seconds: float
    operations: int
    failed: int
    hits: int
    rows: int
    error: str | None = None
    output: dict | None = None  # what record_reference.py stores


# ---------------------------------------------------------------------------
# runs through harness.runner.execute_config

# Frozen acceptance plan shape: sphere kernel, K = 2, 11 halving stages from
# h0 = auto, constant-scaled alpha = 0.5, ravine beta = 0.5.
_PLAN = {"h0": "auto", "stages": 11, "decay": 0.5, "beta": 0.5,
         "step": {"kind": "constant-scaled", "alpha": 0.5}}
_BATCH = 2


@dataclass(frozen=True)
class RunWorkload:
    name: str
    problem: dict
    seeds: dict          # size -> seeds per unit
    iterations: dict     # size -> SGD iterations per stage
    hit: Callable[[float], bool]
    constraint: dict | None = None

    kind = "run"

    def config(self, index: int, size: str, output: str) -> dict:
        """The config the program receives; seeds ``count*index .. count*index+count-1``."""
        count, T = self.seeds[size], self.iterations[size]
        data = {
            "problem": dict(self.problem),
            "kernel": "sphere",
            "seeds": {"master": count * index, "count": count},
            "budget": 2 * _BATCH * T * _PLAN["stages"],
            "output": output,
            "iterations": T,
            "batch_size": _BATCH,
            "plan": json.loads(json.dumps(_PLAN)),
        }
        if self.constraint is not None:
            data["constraint"] = json.loads(json.dumps(self.constraint))
        return data

    def run_unit(self, index: int, size: str, workdir: Path, reference: dict | None,
                 parse: Callable, execute: Callable, clock: Callable) -> UnitResult:
        """Parse the config and execute it; time ``execute`` and check its outputs."""
        out = workdir / self.name
        count = self.seeds[size]
        t0 = clock()
        try:
            cfg = parse(self.config(index, size, str(out)))
            t0 = clock()
            csv_path, outcomes = execute(cfg)
        except Exception as exc:  # a failing program is reported, not fatal
            return UnitResult(clock() - t0, count, count, 0, 0, error=repr(exc))
        seconds = clock() - t0
        data = Path(csv_path).read_bytes()
        text = data.decode("utf-8")
        lines = text.split("\r\n")
        evaluations = [o.record["evaluations"] for o in outcomes]
        rows = sum(o.record["evaluations"] + o.record["diagnostic_evaluations"]
                   for o in outcomes)
        best = [float(r["Max. achived"])
                for r in csv.DictReader(io.StringIO(text, newline=""))]
        output = {"csv_sha256": hashlib.sha256(data).hexdigest(),
                  "rows": lines[1:-1], "evaluations": evaluations}
        planned = cfg.planned_evaluations
        ok = [e == planned for e in evaluations]
        if reference is not None:
            ok = [a and b for a, b in zip(ok, _matches_run(output, reference))]
        if len(ok) != count or len(best) != count:
            ok = [False] * count
        hits = sum(self.hit(b) for b in best)
        return UnitResult(seconds, count, ok.count(False), hits, rows, output=output)


def _matches_run(output: dict, ref: dict) -> list[bool]:
    """Per seed: does its CSV row and evaluation count equal the reference?"""
    n = len(ref["rows"])
    evals = [a == b for a, b in zip(output["evaluations"], ref["evaluations"])]
    evals += [False] * (n - len(evals))
    if output["csv_sha256"] == ref["csv_sha256"]:
        return evals
    rows = output["rows"] + [None] * n
    same = [rows[i] == ref["rows"][i] for i in range(n)]
    if all(same) and len(output["rows"]) == n:
        return [False] * n  # the bytes differ outside the seed rows
    return [a and b for a, b in zip(same, evals)]


# ---------------------------------------------------------------------------
# validation suite through harness.validate.gradient_suite

SUITE_SEED = 20240801  # gradient_suite's default seed: input index 0 is criterion 4's


@dataclass(frozen=True)
class SuiteWorkload:
    name: str
    params: dict  # size -> gradient_suite keyword arguments besides the seed

    kind = "suite"

    def kwargs(self, index: int, size: str) -> dict:
        return dict(self.params[size], seed=SUITE_SEED + index)

    def rows(self, kwargs: dict, suite: Callable) -> int:
        """Objective rows one suite call evaluates, fixed by its parameters."""
        import inspect
        p = {k: v.default for k, v in inspect.signature(suite).parameters.items()}
        p.update(kwargs)
        per_point = sum(2 * p["replicates"] * p["batch"] + 2 * n * p["oracle_samples"]
                        for n in p["dims"])
        return per_point * len(p["kernels"]) * len(p["widths"]) * p["points"]

    def run_unit(self, index: int, size: str, workdir: Path, reference: dict | None,
                 suite: Callable, clock: Callable) -> UnitResult:
        kwargs = self.kwargs(index, size)
        t0 = clock()
        try:
            checks = suite(**kwargs)
        except Exception as exc:  # a failing program is reported, not fatal
            return UnitResult(clock() - t0, 1, 1, 0, 0, error=repr(exc))
        seconds = clock() - t0
        lines = [c.line() for c in checks]
        ok = [True] * len(lines)
        if reference is not None:
            ref = reference["lines"] + [None] * len(lines)
            ok = [a == b for a, b in zip(lines, ref)]
            if len(lines) != len(reference["lines"]):
                ok = [False] * max(len(lines), len(reference["lines"]))
        hits = sum(c.passed for c in checks)
        return UnitResult(seconds, len(ok), ok.count(False), hits,
                          self.rows(kwargs, suite), output={"lines": lines})


WORKLOADS = {
    "polygon-n4": RunWorkload(
        name="polygon-n4",
        problem={"name": "polygon", "n": 4},
        seeds={"full": 10, "tiny": 2},
        iterations={"full": 600, "tiny": 20},
        hit=lambda area: area >= 0.48,  # criterion 2's threshold
    ),
    "ball-ray": RunWorkload(
        name="ball-ray",
        problem={"name": "l1-norm", "n": 4},
        seeds={"full": 1, "tiny": 2},
        iterations={"full": 400, "tiny": 10},
        hit=lambda value: abs(value - 2.0) <= 1e-3,  # optimum 2 at (0.5, ..., 0.5)
        constraint={"type": "ball", "center": [1.0] * 4, "radius": 1.0,
                    "penalty": {"kind": "ray-retraction", "M": 10.0,
                                "anchor": [1.0] * 4}},
    ),
    "validate-gradient": SuiteWorkload(
        name="validate-gradient",
        params={"full": {"points": 1},
                "tiny": {"points": 1, "replicates": 5, "batch": 200,
                         "oracle_samples": 20_000}},
    ),
}


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of the library's Python sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "smoothopt").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(reference: dict, workload: str, size: str, index: int) -> dict | None:
    entries = reference.get("workloads", {}).get(workload, {}).get(size, [])
    return entries[index] if index < len(entries) else None

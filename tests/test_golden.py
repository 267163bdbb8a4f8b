"""Golden outputs of every run mode, pinned by SHA-256.

A matrix of tiny configs runs through ``execute_config``: plan and schedule
mode, every step kind valid in each, both kernels, fixed and coupled widths,
box and ball constraints under both config penalties, an explicit start,
calibration problems and a polygon.  Each case pins
the digest of its ``results.csv`` and of each JSON run record with its
``wall_time`` fields removed.  The ``smoothopt bench polygon`` CSVs for
n = 3 and 4 are pinned too, and n = 20 under ``slow``.

The digests in ``golden_digests.json`` are written by ``record_golden.py``,
which pytest does not run; these tests only compare.
"""
import hashlib
import json
from pathlib import Path

import pytest

from smoothopt.harness.cli import main
from smoothopt.harness.config import parse_config
from smoothopt.harness.runner import execute_config
from smoothopt.optimizer import step_kinds

DIGESTS = Path(__file__).with_name("golden_digests.json")

BALL = {"type": "ball", "center": [1.0, 1.0], "radius": 0.5}
BOX = {"type": "box", "lower": [0.2, 0.2], "upper": [1.0, 1.0]}

# name -> the config's keys besides seeds, budget and output
CASES = {
    "plan-constant-scaled-polygon": {
        "problem": {"name": "polygon", "n": 3}, "kernel": "sphere",
        "iterations": 15, "batch_size": 2,
        "plan": {"h0": "auto", "stages": 3, "decay": 0.5, "beta": 0.5,
                 "step": {"kind": "constant-scaled", "alpha": 0.5}}},
    "plan-constant-gaussian-start": {
        "problem": {"name": "two-well-1d"}, "kernel": "gaussian",
        "iterations": 20, "batch_size": 1, "start": [0.5],
        "plan": {"h0": 2.0, "stages": 3, "beta": 1.0, "step": {"kind": "constant", "rho": 0.05}}},
    "plan-sphere-decaying-coupled": {
        "problem": {"name": "l1-norm", "n": 2}, "kernel": "sphere",
        "iterations": 20, "batch_size": 2,
        "plan": {"stages": 3, "couple_widths": True,
                 "step": {"kind": "sphere-decaying", "L": 3.0, "C": 1.5}}},
    "plan-gaussian-decaying-box-distance": {
        "problem": {"name": "l1-norm", "n": 2}, "kernel": "gaussian",
        "iterations": 20, "batch_size": 2,
        "constraint": dict(BOX, penalty={"kind": "distance", "M": 5.0}),
        "plan": {"stages": 3, "decay": 0.4, "step": {"kind": "gaussian-decaying"}}},
    "plan-gaussian-decaying-coupled-polygon": {
        "problem": {"name": "polygon", "n": 3}, "kernel": "gaussian",
        "iterations": 10, "batch_size": 2,
        "plan": {"stages": 2, "couple_widths": True, "step": {"kind": "gaussian-decaying", "D": 1.0}}},
    "plan-constant-scaled-ball-ray": {
        "problem": {"name": "l1-norm", "n": 2}, "kernel": "sphere",
        "iterations": 20, "batch_size": 1,
        "constraint": dict(BALL, penalty={"kind": "ray-retraction", "M": 10.0,
                                          "anchor": [1.0, 1.0]}),
        "plan": {"stages": 3, "step": {"kind": "constant-scaled", "alpha": 0.3}}},
    "schedule-constant-fixed": {
        "problem": {"name": "two-well-1d"}, "kernel": "sphere",
        "iterations": 40, "batch_size": 1,
        "schedule": {"step": {"kind": "constant", "rho": 0.1},
                     "width": {"kind": "fixed", "h": 0.2}}},
    "schedule-constant-coupled": {
        "problem": {"name": "lsc-step-1d"}, "kernel": "gaussian",
        "iterations": 30, "batch_size": 2,
        "schedule": {"step": {"kind": "constant", "rho": 0.05},
                     "width": {"kind": "coupled"}}},
    "schedule-sphere-fixed-start": {
        "problem": {"name": "l1-norm", "n": 3}, "kernel": "sphere",
        "iterations": 30, "batch_size": 2, "start": [0.5, -0.25, 0.75],
        "schedule": {"step": {"kind": "sphere-fixed", "C": 1.0},
                     "width": {"kind": "fixed", "h": 0.1}}},
    "schedule-sphere-decaying-coupled-box-ray": {
        "problem": {"name": "l1-norm", "n": 2}, "kernel": "sphere",
        "iterations": 30, "batch_size": 2,
        "constraint": dict(BOX, penalty={"kind": "ray-retraction", "M": 4.0,
                                         "anchor": [0.6, 0.6]}),
        "schedule": {"step": {"kind": "sphere-decaying", "D": 1.5, "L": 2.0},
                     "width": {"kind": "coupled", "h": 0.3}}},
    "schedule-gaussian-fixed-polygon": {
        "problem": {"name": "polygon", "n": 3}, "kernel": "gaussian",
        "iterations": 25, "batch_size": 2,
        "schedule": {"step": {"kind": "gaussian-fixed"},
                     "width": {"kind": "fixed", "h": 0.05}}},
    "schedule-gaussian-decaying-coupled": {
        "problem": {"name": "two-well-1d"}, "kernel": "gaussian",
        "iterations": 30, "batch_size": 1,
        "schedule": {"step": {"kind": "gaussian-decaying", "L": 1.5},
                     "width": {"kind": "coupled"}}},
    "schedule-gaussian-vanishing-ball-distance": {
        "problem": {"name": "l1-norm", "n": 2}, "kernel": "gaussian",
        "iterations": 30, "batch_size": 3,
        "constraint": dict(BALL, penalty={"kind": "distance"}),
        "schedule": {"step": {"kind": "gaussian-vanishing"},
                     "width": {"kind": "coupled"}}},
    "schedule-sphere-decaying-fixed-max-coordinate": {
        "problem": {"name": "max-coordinate"}, "kernel": "sphere",
        "iterations": 30, "batch_size": 2,
        "schedule": {"step": {"kind": "sphere-decaying", "D": "auto", "L": "auto"},
                     "width": {"kind": "fixed", "h": 0.25}}},
}

BENCH = {"bench-polygon-n3": 3, "bench-polygon-n4": 4}
SLOW_BENCH = {"bench-polygon-n20": 20}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_wall_times(node):
    if isinstance(node, dict):
        return {k: _without_wall_times(v) for k, v in node.items() if k != "wall_time"}
    if isinstance(node, list):
        return [_without_wall_times(v) for v in node]
    return node


def case_config(name: str) -> dict:
    """The full config of case ``name``, writing under the relative ``out/<name>``."""
    case = json.loads(json.dumps(CASES[name]))
    stages = case.get("plan", {}).get("stages", 11) if "plan" in case else 1
    budget = 2 * case["batch_size"] * case["iterations"] * stages
    return dict(case, seeds=[3, 11], budget=budget, output=f"out/{name}")


def case_digests(name: str) -> dict:
    """Digests of a case's outputs, run in the current directory."""
    csv_path, outcomes = execute_config(parse_config(case_config(name)))
    digests = {"results.csv": _sha256(csv_path.read_bytes())}
    for outcome in outcomes:
        doc = _without_wall_times(json.loads(outcome.record_path.read_text(encoding="utf-8")))
        digests[outcome.record_path.name] = _sha256(json.dumps(doc, indent=2).encode())
    return digests


def bench_digests(n: int, output: Path) -> dict:
    """Digest of the ``results.csv`` that ``smoothopt bench polygon --n <n>`` writes."""
    assert main(["bench", "polygon", "--n", str(n), "--output", str(output)]) == 0
    return {"results.csv": _sha256((output / "results.csv").read_bytes())}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_matrix_covers_every_step_kind_of_each_mode():
    covered = {(mode, case[mode]["step"]["kind"])
               for case in CASES.values() for mode in ("plan", "schedule") if mode in case}
    assert covered == {(mode, kind) for mode in ("plan", "schedule") for kind in step_kinds(mode)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_outputs_match_golden_digests(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the records hold the config, output path included
    assert case_digests(name) == load_digests()[name]


@pytest.mark.parametrize("name", sorted(BENCH))
def test_bench_polygon_csv_matches_golden_digest(tmp_path, capsys, name):
    assert bench_digests(BENCH[name], tmp_path / name) == load_digests()[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(SLOW_BENCH))
def test_slow_bench_polygon_csv_matches_golden_digest(tmp_path, capsys, name):
    assert bench_digests(SLOW_BENCH[name], tmp_path / name) == load_digests()[name]

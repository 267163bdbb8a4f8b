import csv
import hashlib
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smoothopt.harness import config as config_module
from smoothopt.harness.cli import main
from smoothopt.harness.config import ConfigError, load_config, parse_config
from smoothopt.harness.runner import CSV_COLUMNS, build_problem, execute_config, resolve_plan
from smoothopt.harness.validate import gradient_suite
from smoothopt.optimizer import STEP_KINDS, step_kinds


BASE = {
    "problem": {"name": "two-well-1d"},
    "kernel": "sphere",
    "seeds": [1, 2, 3],
    "budget": 10_000,
    "iterations": 40,
    "batch_size": 1,
    "plan": {"h0": 2.0, "stages": 4, "decay": 0.5, "beta": 0.5,
             "step": {"kind": "constant-scaled", "alpha": 0.1}},
}


def read_rows(csv_path):
    with csv_path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConfigValidation:
    def test_minimal_plan_config_parses(self):
        cfg = parse_config(dict(BASE, output="out"))
        assert cfg.seeds == (1, 2, 3)
        assert cfg.stages == 4
        assert cfg.planned_evaluations == 2 * 1 * 40 * 4

    def test_master_seed_expansion(self):
        cfg = parse_config(dict(BASE, seeds={"master": 42, "count": 4}))
        assert cfg.seeds == (42, 43, 44, 45)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(dict(BASE, seeds=[]))

    def test_budget_below_plan_rejected(self):
        with pytest.raises(ConfigError, match="below 2\\*K\\*T\\*stages"):
            parse_config(dict(BASE, budget=100))

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            parse_config(dict(BASE, problem={"name": "mystery"}))

    @pytest.mark.parametrize("data, path", [
        (dict(BASE, typo=1), "typo"),
        # a Gaussian step rule has no C
        (dict(BASE, plan=dict(BASE["plan"], step={"kind": "gaussian-decaying", "C": 5})),
         "plan.step.C")], ids=["top-level", "gaussian-C"])
    def test_unknown_key_rejected(self, data, path):
        with pytest.raises(ConfigError, match="unknown") as err:
            parse_config(data)
        assert str(err.value).startswith(f"{path}: unknown")

    def test_plan_and_schedule_mutually_exclusive(self):
        bad = dict(BASE)
        bad["schedule"] = {"step": {"kind": "constant", "rho": 0.1},
                           "width": {"kind": "fixed", "h": 0.1}}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(bad)

    @pytest.mark.parametrize("mode", ["plan", "schedule"])
    def test_step_kinds_come_from_the_registry(self, mode):
        section = {"step": {"kind": "sphere-vanishing"}, "width": {"kind": "coupled"}}
        with pytest.raises(ConfigError) as err:
            parse_config({**{k: v for k, v in BASE.items() if k != "plan"}, mode: section})
        assert f"one of {step_kinds(mode)}" in str(err.value)
        # the documents list the same kinds per mode
        line = f"{mode}: {', '.join(step_kinds(mode))}"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        for doc in (config_module.__doc__, readme):
            assert line in " ".join(doc.split())

    def test_readme_names_every_config_key(self):
        # each key of the one table and each step parameter, as `key` or key:
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
        names = {path.rsplit(".", 1)[-1] for path in config_module.KEYS}
        names |= {name for entry in STEP_KINDS.values() for name in entry.params}
        assert [name for name in sorted(names)
                if not re.search(rf"(?<![\w-]){re.escape(name)}(?=`|:)", section)] == []

    @pytest.mark.parametrize("mode", ["plan", "schedule"])
    def test_section_must_be_a_mapping(self, mode):
        data = {**{k: v for k, v in BASE.items() if k != "plan"}, mode: 5}
        with pytest.raises(ConfigError, match=f"{mode} must be a mapping"):
            parse_config(data)

    @pytest.mark.parametrize("section, path", [
        ({"plan": {"h0": 0, "stages": 2}}, "plan.h0"),
        ({"schedule": {"step": {"kind": "constant", "rho": 0.1},
                       "width": {"kind": "fixed", "h": 0}}}, "schedule.width.h"),
        # 5e-324 * 0.9 rounds back to 5e-324: the widths would not decrease
        ({"plan": {"h0": 5e-324, "stages": 2, "decay": 0.9}}, "plan.decay")])
    def test_zero_width_fails_at_parse_time(self, section, path):
        data = {**{k: v for k, v in BASE.items() if k != "plan"}, **section}
        with pytest.raises(ConfigError, match=f"{path}: .* must be positive"):
            parse_config(data)

    @pytest.mark.parametrize("mode, kind, name", [
        ("plan", "constant", "rho"), ("plan", "constant-scaled", "alpha"),
        ("plan", "sphere-decaying", "L"), ("schedule", "sphere-decaying", "C"),
        ("schedule", "sphere-fixed", "D")])
    def test_zero_step_parameter_fails_at_parse_time(self, tmp_path, capsys, mode, kind, name):
        # each is a parameter its step rule needs > 0: past the parse, the run
        # would raise in resolve_plan, after set-up and without a line anchor
        width = {"width": {"kind": "fixed", "h": 0.1}} if mode == "schedule" else {}
        data = {**{k: v for k, v in BASE.items() if k != "plan"},
                mode: {"step": {"kind": kind, name: 0}, **width}}
        with pytest.raises(ConfigError, match="must be positive") as err:
            parse_config(data)
        assert str(err.value).startswith(f"{mode}.step.{name}: ")
        data[mode]["step"][name] = "auto" if name in ("D", "L") else 0.5
        assert parse_config(data)  # "auto" and positive values still parse

        cfg = write_config(tmp_path, "\n".join([
            "problem: {name: l1-norm, n: 2}", "seeds: [1]", "budget: 10000", "iterations: 10",
            f"output: {tmp_path / 'out'}", f"{mode}:", "  step:", f"    kind: {kind}",
            f"    {name}: 0", *(["  width: {kind: fixed, h: 0.1}"] if width else []),
        ]))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:9: {mode}.step.{name}: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_import_leaves_yaml_unloaded(self):
        # only reading a file needs PyYAML; set-up and parse_config do not pay for it
        code = "import sys, smoothopt.harness.runner; print('yaml' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "False"

    @pytest.mark.parametrize("module, absent", [
        ("validate", ["smoothopt.harness.runner", "smoothopt.harness.config"]),
        ("runner", ["smoothopt.harness.validate"])])
    def test_import_loads_no_other_harness_module(self, module, absent):
        # without a bytecode cache a set-up compiles every module it imports
        code = (f"import sys, smoothopt.harness.{module}; "
                f"print([m for m in {absent!r} if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "[]"

    def test_error_carries_line_anchor(self, tmp_path):
        path = write_config(tmp_path, "\n".join([
            "problem: {name: two-well-1d}",
            "seeds: []",
            "budget: 10000",
            "iterations: 40",
            "plan: {stages: 2}",
        ]))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.line == 2
        assert str(path) in str(err.value)

    def test_yaml_syntax_error_reported(self, tmp_path):
        path = write_config(tmp_path, "problem: {name: two-well-1d\nseeds: [1]")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)

    def test_polygon_requires_n(self):
        with pytest.raises(ConfigError):
            parse_config(dict(BASE, problem={"name": "polygon"}))

    def test_flags_must_be_booleans(self):
        bad = json.loads(json.dumps(BASE))
        bad["plan"]["couple_widths"] = "false"
        with pytest.raises(ConfigError, match="expected true or false"):
            parse_config(bad)

    @pytest.mark.parametrize("step", ["{kind: constant, rho: 0.1}",
                                      "{kind: constant-scaled, alpha: 0.1}"])
    def test_coupled_widths_need_step_rule_with_L_and_K(self, tmp_path, step):
        path = write_config(tmp_path, "\n".join([
            "problem: {name: two-well-1d}",
            "seeds: [1]",
            "budget: 10000",
            "iterations: 40",
            "plan:",
            f"  step: {step}",
            "  couple_widths: true",
        ]))
        with pytest.raises(ConfigError, match="coupled widths") as err:
            load_config(path)
        assert err.value.line == 7
        assert f"{path}:7:" in str(err.value)

    def test_coupled_widths_accepted_with_step_rule_with_L_and_K(self):
        plan = dict(BASE["plan"], couple_widths=True, step={"kind": "sphere-decaying"})
        assert parse_config(dict(BASE, plan=plan)).plan["couple_widths"] is True

    BALL_RAY = [
        "problem: {name: l1-norm, n: 2}",
        "seeds: [0]",
        "budget: 10000",
        "iterations: 20",
        "plan: {stages: 2, step: {kind: constant-scaled, alpha: 0.5}}",
        "constraint:",
        "  type: ball",
        "  center: [1.0, 1.0]",
        "  radius: 1.0",
        "  penalty:",
        "    kind: ray-retraction",
        "    M: 10.0",
        "    anchor: [1.0, 1.0]",
    ]

    def test_penalty_section_parses(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "\n".join(self.BALL_RAY)))
        assert cfg.constraint["penalty"]["anchor"] == [1.0, 1.0]

    @pytest.mark.parametrize("line, text, match", [
        (13, "", "needs an interior 'anchor'"),
        (13, "    anchor: [3.0, 3.0]", "anchor must lie in the constraint set"),
        (13, "    anchor: [1.0, 1.0, 1.0]", "list of 2 numbers"),
        (12, "    M: 0", "M must be positive"),
        (12, "    M: -1.0", "M must be positive"),
        (11, "    kind: constraint-sum", "explicit constraint functions"),
        (9, "  radius: 0", "radius must be positive"),
        (8, "  center: [1.0]", "list of 2 numbers"),
        (8, "  center: [1.0, .nan]", "list of finite numbers"),
        (14, "    retraction_tol: 1.0e-12", "unknown penalty key"),
    ])
    def test_penalty_section_checked_at_parse_time(self, tmp_path, line, text, match):
        lines = self.BALL_RAY + [""]
        lines[line - 1] = text
        path = write_config(tmp_path, "\n".join(lines))
        with pytest.raises(ConfigError, match=match) as err:
            load_config(path)
        anchor_line = 11 if text == "" else line  # a missing anchor: its penalty section
        assert f"{path}:{anchor_line}:" in str(err.value)

    START = ["problem: {name: polygon, n: 3}", "seeds: [1]", "budget: 10000",
             "iterations: 10", "plan: {stages: 2, step: {kind: constant, rho: 0.1}}"]

    @pytest.mark.parametrize("start, line, path, match", [
        # a polygon's reduced dimension is 2n - 2 = 4
        (["start: [0.5, 0.5]"], 6, "start", "starting point of 4 numbers"),
        (['start: [0.5, 0.5, "x", 0.1]'], 6, "start[2]", "starting point of finite numbers"),
        (["start:", "  - 0.5", "  - 0.5", "  - .nan", "  - 0.1"], 9, "start[2]",
         "starting point of finite numbers"),
        (["start: random"], 6, "start", "'auto' or a starting point"),
        # r_2 = 2 lies outside the projection set, whose r sides end at 1.05
        (["start: [2.0, 0.5, 0.5, 0.5]"], 6, "start", "starting point must lie in the projection"),
    ])
    def test_start_checked_at_parse_time(self, tmp_path, start, line, path, match):
        cfg = write_config(tmp_path, "\n".join(self.START + start))
        with pytest.raises(ConfigError, match=match) as err:
            load_config(cfg)
        assert str(err.value).startswith(f"{cfg}:{line}: {path}: ")

    def test_start_of_problem_dimension_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "\n".join(
            self.START + ["start: [0.5, 0.5, 1, 0.1]"])))
        assert cfg.start == [0.5, 0.5, 1, 0.1]

    @pytest.mark.parametrize("extra, start, ok", [
        # l1-norm's domain is [-1, 1]^2
        ([], [1.0, -1.0], True),
        ([], [1.5, 0.0], False),
        # a constraint's projection set is its box inflated by 10%: [-0.05, 1.05]^2,
        # with sgd_run's tolerance ITERATE_TOL = 1e-9 on the distance
        (["constraint: {type: box, lower: [0, 0], upper: [1, 1]}"], [1.05 + 5e-10, -0.05], True),
        (["constraint: {type: box, lower: [0, 0], upper: [1, 1]}"], [1.05 + 2e-9, 0.5], False),
        (["constraint: {type: ball, center: [0, 0], radius: 1.0}"], [1.09, -1.09], True),
    ])
    def test_start_checked_against_the_runs_projection_set(self, tmp_path, extra, start, ok):
        lines = ["problem: {name: l1-norm, n: 2}", "seeds: [1]", "budget: 10000",
                 "iterations: 10", "plan: {stages: 2, step: {kind: constant, rho: 0.1}}",
                 *extra, f"start: {start!r}"]
        path = write_config(tmp_path, "\n".join(lines))
        if ok:
            assert load_config(path).start == start
        else:
            with pytest.raises(ConfigError, match="projection set") as err:
                load_config(path)
            assert str(err.value).startswith(f"{path}:{len(lines)}: start: ")

    PLAN_LINES = ["problem:", "  name: l1-norm", "  n: 2", "seeds:", "  master: 1",
                  "  count: 2", "budget: 10000", "iterations: 20", "plan:", "  stages: 2",
                  "  step:", "    kind: constant", "    rho: 0.1", "constraint:", "  type: ball",
                  "  center: [1.0, 1.0]", "  radius: 1.0"]
    SCHEDULE_LINES = ["problem: {name: l1-norm, n: 2}", "seeds: [1]", "budget: 10000",
                      "iterations: 20", "schedule:", "  step:", "    kind: constant",
                      "    rho: 0.1", "  width:", "    kind: fixed", "    h: 0.1",
                      "constraint:", "  type: box", "  lower: [0, 0]", "  upper: [1, 1]"]

    @pytest.mark.parametrize("mode, after, text, path", [
        ("plan", 3, "  p1: 3", "problem.p1"),
        ("plan", 8, "record_trajectory: true", "record_trajectory"),
        ("plan", 6, "  cnt: 3", "seeds.cnt"),
        ("plan", 10, "  stagez: 3", "plan.stagez"),
        ("plan", 13, "    alpah: 1", "plan.step.alpah"),
        ("plan", 17, "  centre: [1.0, 1.0]", "constraint.centre"),
        ("schedule", 8, "    alpha: 1", "schedule.step.alpha"),
        ("schedule", 11, "  stages: 3", "schedule.stages"),
        ("schedule", 11, "    hh: 1", "schedule.width.hh"),
        ("schedule", 15, "  radius: 1.0", "constraint.radius"),
    ])
    def test_unknown_key_fails_at_its_line_at_every_level(self, tmp_path, mode, after, text,
                                                           path):
        lines = list(self.PLAN_LINES if mode == "plan" else self.SCHEDULE_LINES)
        assert load_config(write_config(tmp_path, "\n".join(lines), "good.yaml"))
        lines.insert(after, text)
        cfg = write_config(tmp_path, "\n".join(lines))
        with pytest.raises(ConfigError, match="unknown") as err:
            load_config(cfg)
        assert str(err.value).startswith(f"{cfg}:{after + 1}: {path}: unknown")

    @pytest.mark.parametrize("problem, path, match", [
        ({"name": "polygon", "n": 3, "p4": 1}, "problem.p4", "unknown parameter of 'polygon'"),
        ({"name": "l1-norm", "n": 2, "p1": 3}, "problem.p1", "unknown parameter of 'l1-norm'"),
        ({"name": "l1-norm", "n": 2.5}, "problem.n", "expected an integer"),
        ({"name": "two-well-1d", "n": 5}, "problem.n", "1-dimensional, got n = 5"),
        ({"name": "polygon", "n": None}, "problem.n", "expected a number"),
        ({"name": "polygon", "n": 3, "p1": 0}, "problem.p1", "positive"),
        ({"name": "polygon", "n": 3, "p3": float("inf")}, "problem.p3", "positive and finite"),
        ({"name": "polygon", "n": 3, "p2": "1"}, "problem.p2", "expected a number"),
    ])
    def test_problem_section_checked_at_parse_time(self, problem, path, match):
        with pytest.raises(ConfigError, match=match) as err:
            parse_config(dict(BASE, problem=problem))
        assert str(err.value).startswith(f"{path}: ")

    def test_polygon_penalty_coefficients_parse(self):
        cfg = parse_config(dict(BASE, problem={"name": "polygon", "n": 3, "p1": 2, "p3": 5.0}))
        assert cfg.problem_params == {"n": 3, "p1": 2.0, "p3": 5.0}

    def test_constraint_rejected_for_polygon(self):
        bad = dict(BASE, problem={"name": "polygon", "n": 3},
                   constraint={"type": "ball", "center": [0, 0], "radius": 1.0})
        with pytest.raises(ConfigError, match="own penalties"):
            parse_config(bad)


class TestExecuteConfig:
    def test_csv_table_shape_and_content(self, tmp_path):
        cfg = parse_config(dict(BASE, output=str(tmp_path / "out")))
        csv_path, outcomes = execute_config(cfg)
        rows = read_rows(csv_path)
        assert [len(r) for r in rows] == [len(CSV_COLUMNS)] * 3
        assert list(rows[0]) == CSV_COLUMNS
        assert [int(r["seed"]) for r in rows] == [1, 2, 3]
        for row in rows:
            assert int(row["Func. calc."]) == 2 * 1 * 40 * 4
            assert float(row["Max. achived"]) <= float(row["value_at_weighted_average"]) + 1.0

    def test_polygon_ideal_value_column(self, tmp_path):
        cfg = parse_config({
            "problem": {"name": "polygon", "n": 3},
            "seeds": [1, 2, 3],
            "budget": 20_000,
            "output": str(tmp_path / "out"),
            "iterations": 20,
            "batch_size": 2,
            "plan": {"stages": 4, "step": {"kind": "constant-scaled", "alpha": 0.5}},
        })
        csv_path, _ = execute_config(cfg)
        rows = read_rows(csv_path)
        assert len(rows) == 3
        for row in rows:
            assert round(float(row["Ideal value"]), 4) == 0.4330

    def test_rerun_reproduces_csv_bitwise(self, tmp_path):
        ray = dict(BASE, problem={"name": "l1-norm", "n": 3}, iterations=20,
                   constraint={"type": "ball", "center": [1.0] * 3, "radius": 1.0,
                               "penalty": {"kind": "ray-retraction", "anchor": [1.0] * 3}})
        polygon = dict(BASE, problem={"name": "polygon", "n": 3}, iterations=20)

        def csv(data, seeds, tag):
            cfg = parse_config(dict(data, seeds=seeds, output=str(tmp_path / tag)))
            return execute_config(cfg)[0].read_bytes()

        # re-runs, with a step that scales with the (estimated) Lipschitz constant
        for name, data in (("base", BASE), ("ray", ray)):
            assert csv(data, [1, 2, 3], f"{name}-again") == csv(data, [1, 2, 3], name)
        # seed layouts, with a step that does not use the Lipschitz estimate: it
        # is seeded from the first seed of the list, so a row depends on that seed
        constant = dict(BASE["plan"], step={"kind": "constant", "rho": 0.02})
        for name, data in (("polygon", polygon), ("ray", ray)):
            data = dict(data, plan=constant)
            together = csv(data, [5, 6], f"{name}-together").split(b"\r\n")[1:3]
            apart = [csv(data, [seed], f"{name}-{seed}").split(b"\r\n")[1] for seed in (5, 6)]
            assert together == apart

    def test_run_records_are_self_describing(self, tmp_path):
        cfg = parse_config(dict(BASE, output=str(tmp_path / "out")))
        _, outcomes = execute_config(cfg)
        widths = resolve_plan(cfg, build_problem(cfg)).widths
        assert widths == cfg.plan["widths"]  # the widths the config checked
        for outcome in outcomes:
            doc = json.loads(outcome.record_path.read_text())
            assert doc["format"] == "smoothopt-run/1"
            assert doc["config"]["problem"]["name"] == "two-well-1d"
            assert doc["seed"] == outcome.seed
            assert len(doc["stages"]) == 4
            assert doc["evaluations"] == 2 * 1 * 40 * 4
            assert [s["index"] for s in doc["stages"]] == [0, 1, 2, 3]
            assert tuple(s["h"] for s in doc["stages"]) == widths
            bests = [s["best_so_far"] for s in doc["stages"]]
            values = [s["best_value"] for s in doc["stages"]]
            assert bests == [min(values[:i + 1]) for i in range(len(values))]
            assert bests[-1] == doc["best_value"]

    def test_single_stage_schedule_mode(self, tmp_path):
        cfg = parse_config({
            "problem": {"name": "l1-norm", "n": 2},
            "seeds": [5],
            "budget": 1_000,
            "output": str(tmp_path / "out"),
            "iterations": 100,
            "batch_size": 2,
            "schedule": {"step": {"kind": "sphere-decaying", "D": 2.0, "L": 1.5, "C": 1.0},
                         "width": {"kind": "fixed", "h": 0.2}},
        })
        csv_path, outcomes = execute_config(cfg)
        rows = read_rows(csv_path)
        assert rows[0]["stages"] == "1"
        assert int(rows[0]["Func. calc."]) == 400

    def test_flat_lipschitz_estimate_is_retaken_at_half_the_diameter(self, tmp_path):
        # lsc-step-1d jumps at 0: among 1000 points of [-1, 1], hardly one lies
        # within h0 = 1e-6 of it, so every quotient at that scale is 0
        from smoothopt.harness import runner as runner_mod

        plan = {"h0": 1e-6, "stages": 1, "step": {"kind": "sphere-decaying"}}
        cfg = parse_config(dict(BASE, problem={"name": "lsc-step-1d"}, output=str(tmp_path),
                                plan=plan))
        problem = build_problem(cfg)
        assert runner_mod._resolve_L(cfg, problem, scale=1e-6) == 0
        L = runner_mod._resolve_L(cfg, problem, scale=1.0)  # the domain [-1, 1]
        assert L > 0 and resolve_plan(cfg, problem).steps[0].L == L
        assert len(execute_config(cfg)[1]) == len(cfg.seeds)

    def test_constraint_wrapped_problem(self, tmp_path):
        cfg = parse_config({
            "problem": {"name": "l1-norm", "n": 2},
            "constraint": {"type": "ball", "center": [1.0, 1.0], "radius": 0.5,
                           "penalty": {"kind": "distance", "M": 5.0}},
            "seeds": [0, 1],
            "budget": 20_000,
            "output": str(tmp_path / "out"),
            "iterations": 50,
            "batch_size": 1,
            "plan": {"stages": 5, "step": {"kind": "constant-scaled", "alpha": 0.2}},
        })
        _, outcomes = execute_config(cfg)
        # constrained minimum of |x|_1 over the ball sits near (0.65, 0.65)
        for outcome in outcomes:
            assert outcome.row["Max. achived"] >= 1.2


    def test_lockstep_evaluation_error_names_seed(self, tmp_path, monkeypatch):
        import dataclasses
        from smoothopt.harness import runner as runner_mod
        from smoothopt.smoothing import EvaluationError

        real_build = runner_mod.build_problem
        calls = 0

        def poisoned(cfg):
            problem = real_build(cfg)

            def batch(Z):
                nonlocal calls
                calls += 1
                out = problem.objective_batch(Z)
                if calls == 7:  # rows 2 and 3 are the probes of the second seed
                    out[2] = np.nan
                return out

            return dataclasses.replace(problem, objective_batch=batch)

        monkeypatch.setattr(runner_mod, "build_problem", poisoned)
        cfg = parse_config(dict(BASE, seeds=[4, 9, 13], output=str(tmp_path / "out")))
        with pytest.raises(EvaluationError) as err:
            execute_config(cfg)
        assert (err.value.seed, err.value.stage, err.value.iteration) == (9, 0, 7)
        assert "(seed 9)" in str(err.value)


def _perfbench(name):
    """A module of the benchmark, such as its workload definitions, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _replay_workload(tmp_path, name, size, index):
    """Run one input set of a benchmark workload and check it against ``reference.json``."""
    W = _perfbench("workloads")
    reference = W.reference_for(W.load_reference(), name, size, index)
    workload = W.WORKLOADS[name]
    if workload.kind == "suite":
        checks = gradient_suite(**workload.kwargs(index, size))
        assert [c.line() for c in checks] == reference["lines"]
        return
    cfg = parse_config(workload.config(index, size, str(tmp_path / name)))
    csv_path, outcomes = execute_config(cfg)
    data = csv_path.read_bytes()
    assert data.decode("utf-8").split("\r\n")[1:-1] == reference["rows"]
    assert hashlib.sha256(data).hexdigest() == reference["csv_sha256"]
    assert [o.record["evaluations"] for o in outcomes] == reference["evaluations"]


WORKLOAD_NAMES = ["polygon-n4", "ball-ray", "validate-gradient"]


class TestBenchmarkReference:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_tiny_workload_reproduces_reference(self, tmp_path, name):
        _replay_workload(tmp_path, name, "tiny", 0)

    @pytest.mark.slow
    @pytest.mark.parametrize("index", range(32))
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_full_workload_reproduces_reference(self, tmp_path, name, index):
        # every recorded full input set, byte for byte (the suite's check
        # lines for validate-gradient): about two minutes in all
        _replay_workload(tmp_path, name, "full", index)


class TestBenchmarkPatchPoints:
    def test_tracer_patches_exist_and_are_restored(self):
        # the traced benchmark wraps library names in place; a name the
        # library no longer has makes install() fail
        from smoothopt import continuation, penalty, smoothing
        from smoothopt.harness import runner, validate

        owners = (runner, continuation, penalty, smoothing, validate,
                  penalty.Box, penalty.Ball, smoothing.Kernel)
        before = [dict(vars(owner)) for owner in owners]
        tracer = _perfbench("spans").Tracer()
        try:
            tracer.install()
            patched = [(owner, attr) for owner, attr, _ in tracer._patches]
            assert patched and all(owner in owners for owner, _ in patched)
        finally:
            tracer.uninstall()
        for owner, saved in zip(owners, before):
            assert vars(owner).keys() == saved.keys()
            for attr, value in saved.items():
                assert vars(owner)[attr] is value, (owner, attr)


class TestCli:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path, "\n".join([
            "problem: {name: two-well-1d}",
            "seeds: [1]",
            "budget: 1000",
            "iterations: 25",
            f"output: {tmp_path / 'out'}",
            "plan: {stages: 3, step: {kind: constant-scaled, alpha: 0.1}}",
        ]))
        assert main(["run", str(good)]) == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = write_config(tmp_path, "problem: {name: two-well-1d}\nseeds: []\n"
                                     "budget: 100\niterations: 10\nplan: {stages: 2}")
        assert main(["run", str(bad)]) == 2
        assert "seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["{name: polygon, n: 3, p4: 1}",
                                         "{name: l1-norm, n: 2.5}"])
    def test_bad_problem_section_exits_2(self, tmp_path, capsys, problem):
        cfg = write_config(tmp_path, "\n".join([
            f"problem: {problem}", "seeds: [1]", "budget: 1000", "iterations: 10",
            f"output: {tmp_path / 'out'}", "plan: {stages: 2, step: {kind: constant, rho: 0.1}}",
        ]))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:1: problem.") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_single_point_box_fails_at_parse_time(self, tmp_path, capsys):
        # its projection set has no width, so the first stage would have none
        lines = ["problem: {name: l1-norm, n: 2}", "seeds: [1]", "budget: 1000",
                 "iterations: 10", f"output: {tmp_path / 'out'}",
                 "plan: {stages: 2, step: {kind: constant, rho: 0.1}}",
                 "constraint: {type: box, lower: [0.5, 0.5], upper: [0.5, 0.5]}"]
        cfg = write_config(tmp_path, "\n".join(lines))
        point = {"type": "box", "lower": [0.5, 0.5], "upper": [0.5, 0.5]}
        with pytest.raises(ConfigError, match="single point") as err:
            parse_config(dict(BASE, problem={"name": "l1-norm", "n": 2}, constraint=point))
        assert str(err.value).startswith("constraint.upper: ")
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:7: constraint.upper: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("constraint, path", [
        (["type: box", "lower: [0.0, 0.0]", "upper: [1.0e-300, 1.0e-300]"], "constraint.upper"),
        (["type: ball", "center: [0.0, 0.0]", "radius: 1.0e-300"], "constraint.radius")],
        ids=["box", "ball"])
    def test_projection_set_without_width_fails_at_parse_time(self, tmp_path, capsys,
                                                              constraint, path):
        # its diameter underflows to 0, so h0 = auto would be 0
        lines = ["problem: {name: l1-norm, n: 2}", "seeds: [1]", "budget: 1000",
                 "iterations: 10", f"output: {tmp_path / 'out'}",
                 "plan: {stages: 2, step: {kind: constant, rho: 0.1}}", "constraint:",
                 *(f"  {line}" for line in constraint)]
        cfg = write_config(tmp_path, "\n".join(lines))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:10: {path}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, anchor", [
        (["plan: {stages: 2, step: {kind: sphere-decaying, L: 1.0e-300, D: 1.0e+300}}"],
         "6: plan.step"),
        # D: auto is the stage's 2 h
        (["plan: {h0: 1.0e+300, stages: 2, step: {kind: sphere-decaying, L: 1.0e-10}}"],
         "6: plan.step"),
        (["schedule:", "  step: {kind: gaussian-fixed, D: 1.0e-300, L: 1.0e+300}",
          "  width: {kind: fixed, h: 0.1}"], "7: schedule.step")],
        ids=["overflow", "overflow-auto-D", "underflow"])
    def test_step_size_out_of_range_fails_at_parse_time(self, tmp_path, capsys, section, anchor):
        # stage 0 would step by inf, or by 0 with an average of 0 / 0
        cfg = write_config(tmp_path, "\n".join([
            "problem: {name: l1-norm, n: 2}", "seeds: [1]", "budget: 1000",
            "iterations: 10", f"output: {tmp_path / 'out'}", *section]))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:{anchor}: step sizes must be positive and finite")
        assert not (tmp_path / "out").exists()

    def test_step_size_that_takes_the_estimate_is_checked_before_the_run(self, tmp_path,
                                                                          capsys):
        # alpha * h / L is known only with the Lipschitz estimate, and overflows
        cfg = write_config(tmp_path, "\n".join([
            "problem: {name: lsc-step-1d}", "seeds: [1]", "budget: 1000", "iterations: 5",
            f"output: {tmp_path / 'out'}",
            "plan: {stages: 2, step: {kind: constant-scaled, alpha: 1.7e+308}}"]))
        assert load_config(cfg).plan["step"]["alpha"] == 1.7e308
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:6: plan.step: step sizes must be positive and "
                              f"finite") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds, line, index", [
        (["  - 3", "  - -1"], 4, 1),
        (["  - 1", "  - 2", "  - 1"], 5, 2)], ids=["negative", "repeated"])
    def test_bad_seed_entry_fails_at_parse_time(self, tmp_path, capsys, seeds, line, index):
        # a repeated seed's runs would write one record path
        cfg = write_config(tmp_path, "\n".join([
            "problem: {name: two-well-1d}", "seeds:", *seeds, "budget: 1000",
            "iterations: 10", f"output: {tmp_path / 'out'}",
            "plan: {stages: 2, step: {kind: constant, rho: 0.1}}"]))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:{line}: seeds[{index}]: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output", ["cfg.yaml", "cfg.yaml/out"])
    def test_output_under_a_file_fails_at_parse_time(self, tmp_path, capsys, output):
        # mkdir would fail only after every seed had run
        cfg = write_config(tmp_path, "\n".join([
            "problem: {name: two-well-1d}", "seeds: [1]", "budget: 1000", "iterations: 10",
            f"output: {tmp_path / output}", "plan: {stages: 2, step: {kind: constant, rho: 0.1}}"]))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:5: output: ")

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["validate", "no-such-suite"]) == 2

    def test_rate_checkpoint_1_rejected(self, capsys):
        assert main(["validate", "rate", "--checkpoints", "1"]) == 2
        assert "invalid parameters" in capsys.readouterr().err

    def test_repeated_rate_checkpoints_rejected(self, capsys):
        # a repeat would pool its gaps into two lines, each claiming every seed
        assert main(["validate", "rate", "--checkpoints", "5", "3", "5", "700"]) == 2
        captured = capsys.readouterr()
        assert "invalid parameters" in captured.err and "distinct" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["gradient", "moments", "penalty"])
    def test_checkpoints_outside_the_rate_suite_exit_2_before_running(self, suite, capsys,
                                                                       monkeypatch):
        from smoothopt.harness import validate

        def no_run(**kwargs):
            raise AssertionError("ran the suite")

        monkeypatch.setitem(validate.SUITES, suite, no_run)
        assert main(["validate", suite, "--checkpoints", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--checkpoints" in captured.err
        assert captured.out == ""

    def test_moments_suite_passes(self, capsys):
        assert main(["validate", "moments"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_estimate_lipschitz(self, capsys):
        assert main(["estimate-lipschitz", "l1-norm", "--n", "3",
                     "--scale", "0.1", "--samples", "200"]) == 0
        out = capsys.readouterr().out
        # Euclidean constant of the 3-D l1 norm is sqrt(3); x1.5 safety
        reported = float(out.split("L ~ ")[1].split()[0])
        assert reported == pytest.approx(1.5 * math.sqrt(3.0), rel=0.05)

    def test_bench_polygon_small(self, tmp_path, capsys):
        assert main(["bench", "polygon", "--n", "3", "--seeds", "2",
                     "--output", str(tmp_path / "bench")]) == 0
        out = capsys.readouterr().out
        assert "best area" in out

    @pytest.mark.parametrize("argv, name", [
        (["bench", "polygon", "--batch-size", "0"], "batch_size"),
        (["estimate-lipschitz", "l1-norm", "--n", "2", "--samples", "0"], "samples"),
        (["estimate-lipschitz", "l1-norm", "--n", "2", "--scale", "-1"], "scale"),
        (["estimate-lipschitz", "l1-norm", "--n", "2", "--scale", "0"], "scale"),
        (["estimate-lipschitz", "l1-norm", "--n", "2", "--scale", "inf"], "scale"),
        (["estimate-lipschitz", "l1-norm", "--n", "2", "--scale", "1e308"], "scale"),
    ], ids=["batch-size-0", "samples-0", "scale-negative", "scale-0", "scale-inf",
            "scale-doubled-overflows"])
    def test_bad_argument_exits_2_with_an_error_line(self, tmp_path, monkeypatch, capsys,
                                                      argv, name):
        monkeypatch.chdir(tmp_path)  # bench writes its default output directory here
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and name in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_estimate_lipschitz_evaluation_error_exits_3(self, capsys):
        # the polygon's penalty overflows to inf at this scale's probes
        with np.errstate(over="ignore"):
            assert main(["estimate-lipschitz", "polygon", "--n", "3", "--scale", "1e200"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: objective returned non-finite value")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_infeasible_start_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "\n".join([
            "problem: {name: lsc-step-1d}",
            "seeds: [1]",
            "budget: 1000",
            "iterations: 10",
            f"output: {tmp_path / 'out'}",
            "start: [.nan]",
            "plan: {stages: 2, step: {kind: constant, rho: 0.1}}",
        ]))
        assert main(["run", str(cfg)]) == 2
        assert "starting point" in capsys.readouterr().err

    def test_evaluation_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # built-in objectives are total, so poison one to drive the error path
        import dataclasses
        from smoothopt.harness import runner as runner_mod

        real_build = runner_mod.build_problem

        def poisoned(cfg):
            problem = real_build(cfg)
            rows = 0

            def bad(Z):
                nonlocal rows
                index = rows + np.arange(len(Z))
                rows += len(Z)
                return np.where(index >= 5, np.inf, problem.objective_batch(Z))

            return dataclasses.replace(problem, objective_batch=bad)

        monkeypatch.setattr(runner_mod, "build_problem", poisoned)
        cfg = write_config(tmp_path, "\n".join([
            "problem: {name: two-well-1d}",
            "seeds: [1]",
            "budget: 1000",
            "iterations: 10",
            f"output: {tmp_path / 'out'}",
            "plan: {stages: 2, step: {kind: constant, rho: 0.1}}",
        ]))
        code = main(["run", str(cfg)])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite" in err and "iteration" in err and "stage" in err

"""Every run config that parses, runs: the contract behind exit code 2.

Hypothesis draws configs over the whole schema, each key from its row of
``config.KEYS`` (``step_key`` and ``problem_key`` for a step's and a
problem's parameters), and writes each as YAML.  The file must then fail
with a ``ConfigError`` anchored at a line and leave no output directory, or
run tiny through ``execute_config`` and write one record per seed, or end in
``EvaluationError`` (CLI exit 3).  numpy warnings are errors under pytest,
so an allowed number lies within [1e-6, 1e6] and an integer within two of
its minimum; only step parameters also take 1.7e+308 and 5e-324.
"""
import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothopt.harness.config import (KEYS, REQUIRED, ConfigError, load_config, problem_key,
                                      step_key)
from smoothopt.harness.runner import execute_config
from smoothopt.optimizer import STEP_KINDS, step_kinds
from smoothopt.problems import problem_parameters
from smoothopt.smoothing import EvaluationError

NOT_FINITE = [math.inf, -math.inf, math.nan, 10 ** 400]


def mostly(valid, rejected):
    """``valid`` nineteen times in twenty, else ``rejected``: most configs get to run."""
    return st.integers(0, 19).flatmap(lambda k: rejected if k == 19 else valid)


def value(key, extra=()):
    """Mostly what the row allows, or nothing where it has a default; else what it
    forbids: outside its choices or bound, the wrong type, not finite, ``auto``."""
    if key.type is bool or isinstance(key.type, tuple):
        good = st.sampled_from((False, True) if key.type is bool else key.type)
        bad = ["false", 1] if key.type is bool else ["x", 5]
    else:
        closed = isinstance(key.bound, (int, float))  # a minimum, itself allowed
        lo, hi = (key.bound, math.inf) if closed else (
            key.bound if isinstance(key.bound, tuple) else (0, math.inf))
        bad = ["x", *NOT_FINITE, *([] if key.auto else ["auto"]), lo - 1,
               *([] if closed else [lo]), *([hi, 2 * hi] if hi < 1e6 else [])]
        if key.type is int:
            good, bad = st.integers(lo, lo + 2), [*bad, lo + 0.5]
        else:
            good = st.one_of(
                st.sampled_from([*(v for v in (1e-6, 0.5, 1, 7, 1e6) if lo < v < hi),
                                 *([lo] if closed else [])]),
                st.floats(max(lo, 1e-6), min(hi, 1e6), exclude_max=hi <= 1e6),
                *([st.sampled_from(extra)] if extra else []))
        good = st.one_of(good, st.just("auto")) if key.auto else good
    absent = [] if key.default is REQUIRED else [st.none()]
    return mostly(st.one_of(*absent, good), st.sampled_from(bad))


def optional(**keys):
    """A mapping of the drawn keys, a key drawn as None left out."""
    return st.fixed_dictionaries(keys).map(
        lambda d: {k: v for k, v in d.items() if v is not None})


@st.composite
def problems(draw):
    name = draw(value(KEYS["problem.name"]))
    params = {p: value(problem_key(name, p)) for p in problem_parameters(name)}
    if name in ("two-well-1d", "lsc-step-1d"):  # n is their dimension, 1
        params["n"] = mostly(st.sampled_from([None, 1]), st.just(2))
    return {"name": name, **draw(optional(**params))}


def dimension(problem):
    n = problem.get("n", 1)
    n = n if type(n) is int and 1 <= n <= 5 else 3
    return 2 * n - 2 if problem["name"] == "polygon" else n


COORDS = mostly(st.one_of(st.sampled_from([-1.0, -0.5, 0, 0.25, 0.5, 1, 2.0]),
                          st.floats(min_value=-1e6, max_value=1e6)),
                st.sampled_from([*NOT_FINITE, "auto"]))
# a radius, or the width of a box side
WIDTHS = mostly(value(KEYS["constraint.radius"]), st.just(1e-300))


def vectors(dim):
    return st.lists(COORDS, min_size=dim, max_size=dim)


@st.composite
def step(draw, mode):
    """A step section: mostly a kind the mode takes, each parameter drawn by its row."""
    row = KEYS[f"{mode}.step.kind"]
    kind = draw(mostly(value(row), st.sampled_from(step_kinds())))
    entry = STEP_KINDS.get(row.default if kind is None else kind)
    return {**({} if kind is None else {"kind": kind}), **draw(optional(**{
        name: value(step_key(kind or row.default, name), [1.7e308, 5e-324])
        for name in (entry.params if entry else ())}))}


PLANS = st.builds(lambda plan: {"plan": plan}, optional(
    **{path[5:]: value(KEYS[path]) for path in KEYS
       if path.startswith("plan.") and path.count(".") == 1},
    step=st.one_of(st.none(), step("plan"))))

SCHEDULES = st.builds(
    lambda step, width: {"schedule": {"step": step, "width": width}}, step("schedule"),
    optional(kind=value(KEYS["schedule.width.kind"]), h=value(KEYS["schedule.width.h"])))


@st.composite
def constraints(draw, dim):
    """A box or a ball with no penalty or either config penalty, and a point inside it."""
    ctype, lower = draw(value(KEYS["constraint.type"])), draw(vectors(dim))
    section, middle = {"type": ctype, "center": lower, "radius": draw(WIDTHS)}, lower
    if ctype == "box":
        widths = draw(st.lists(WIDTHS, min_size=dim, max_size=dim))
        # a rejected entry stands for itself
        ok = [all(isinstance(v, (int, float)) and abs(v) <= 1e6 for v in pair)
              for pair in zip(lower, widths)]
        section = {"type": ctype, "lower": lower,
                   "upper": [lo + w if fine else w for lo, w, fine in zip(lower, widths, ok)]}
        middle = [lo + 0.5 * w if fine else w for lo, w, fine in zip(lower, widths, ok)]
    penalty = draw(value(KEYS["constraint.penalty.kind"]))
    if penalty is not None:
        section["penalty"] = draw(optional(kind=st.just(penalty),
                                           M=value(KEYS["constraint.penalty.M"])))
        if penalty == "ray-retraction":
            section["penalty"]["anchor"] = draw(mostly(st.just(middle), vectors(dim)))
    return section, middle


@st.composite
def configs(draw):
    problem = draw(problems())
    dim = dimension(problem)
    data = {"problem": problem, **draw(optional(
        kernel=value(KEYS["kernel"]),
        seeds=mostly(st.one_of(st.lists(st.integers(0, 2 ** 64), min_size=1, max_size=3,
                                        unique=True),
                               optional(master=value(KEYS["seeds.master"]),
                                        count=value(KEYS["seeds.count"]))),
                     st.lists(st.sampled_from([0, 1, -1]), max_size=3)),
        iterations=value(KEYS["iterations"]), batch_size=value(KEYS["batch_size"])))}
    data.update(draw(st.one_of(PLANS, SCHEDULES)))
    sizes = [data["iterations"], data.get("batch_size", 1),
             data["plan"].get("stages", 11) if "plan" in data else 1]
    needed = 2 * math.prod(v if type(v) is int and 0 <= v <= 11 else 1 for v in sizes)
    data["budget"] = max(1, needed + draw(mostly(st.sampled_from([0, 7]), st.just(-1))))
    inside = [[0.5] * dim] + ([] if problem["name"] == "polygon" else [[0.0] * dim])
    if problem["name"] != "polygon" and draw(st.booleans()):
        data["constraint"], middle = draw(constraints(dim))
        inside = [middle]
    start = draw(mostly(st.sampled_from([None, "auto", *inside]), vectors(dim)))
    return data if start is None else dict(data, start=start)


TINY = {"problem": {"name": "two-well-1d"}, "seeds": [1], "iterations": 2, "budget": 8,
        "plan": {"stages": 2, "step": {"kind": "constant", "rho": 0.1}}}


@settings(max_examples=300, deadline=None)
@example(dict(TINY, seeds=[-1]))
@example(dict(TINY, seeds=[1, 1]))
@example(dict(TINY, problem={"name": "l1-norm"},
              constraint={"type": "box", "lower": [0.0], "upper": [1e-300]}))
@example(dict(TINY, problem={"name": "l1-norm"},
              constraint={"type": "ball", "center": [0.0], "radius": 1e-300}))
@example(dict(TINY, plan={"h0": 5e-324, "stages": 2, "decay": 0.9}))
@example(dict(TINY, problem={"name": "lsc-step-1d"},
              plan={"h0": 1e-6, "stages": 1, "step": {"kind": "sphere-decaying"}}))
@example(dict(TINY, problem={"name": "l1-norm", "n": 2},
              plan={"stages": 2, "step": {"kind": "sphere-decaying", "L": 1e-300, "D": 1e300}}))
# the step size alpha * h / L overflows only with the Lipschitz estimate
@example(dict(TINY, problem={"name": "lsc-step-1d"}, iterations=5, budget=20,
              plan={"stages": 2, "step": {"kind": "constant-scaled", "alpha": 1.7e308}}))
@given(configs())
def test_every_config_that_parses_runs(data):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        path = Path(tmp, "run.yaml")
        path.write_text(yaml.safe_dump(dict(data, output=str(out)), sort_keys=False),
                        encoding="utf-8")
        try:
            cfg = load_config(path)
            csv_path, outcomes = execute_config(cfg)
        except ConfigError as err:
            assert err.line is not None, f"no line anchor: {err}"
            assert not out.exists()
            return
        except EvaluationError:
            return
        assert len(outcomes) == len(cfg.seeds)
        assert len(list(out.glob("run-*.json"))) == len(cfg.seeds)
        assert csv_path.read_text(encoding="utf-8").count("\n") == len(cfg.seeds) + 1

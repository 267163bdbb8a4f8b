"""Every run config that parses, runs: the contract behind exit code 2.

Hypothesis draws configs over the whole schema -- both ``plan`` and
``schedule``, every step kind of ``optimizer.STEP_KINDS`` with its parameters
(``auto`` and ``0`` included), box and ball constraints under both config
penalties, explicit starts, seed lists and ``{master, count}`` -- and writes
each one as YAML.  The file must then either fail ``load_config`` with a
``ConfigError`` anchored at a line, or run tiny (T <= 3, at most 3 stages)
through ``execute_config`` and write one record per seed.  The only error a
run may raise is ``EvaluationError`` (a non-finite objective value, CLI
exit 3).

numpy warnings are errors under pytest, so the draws bound their
magnitudes: a number the parser must accept lies within [1e-6, 1e6] in
absolute value, where no tiny run overflows or rounds a step size to zero.
Beside those the draws take what the parser must reject -- 0, negatives,
``.inf``, ``.nan``, an integer no float holds, ``auto`` where it is not
allowed -- and constraint sets of width 1e-300, whose diameter underflows to
0; the examples add widths that underflow within a plan, and a step size
that overflows.
"""
import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothopt.harness.config import ConfigError, load_config
from smoothopt.harness.runner import execute_config
from smoothopt.optimizer import STEP_KINDS, step_kinds
from smoothopt.smoothing import EvaluationError


def mostly(valid, rejected):
    """``valid`` nineteen times in twenty, else ``rejected``: most configs get to run."""
    return st.integers(0, 19).flatmap(lambda k: rejected if k == 0 else valid)


POSITIVE = st.one_of(st.sampled_from([1e-6, 0.05, 0.5, 1, 2.0, 7, 1e6]),
                     st.floats(min_value=1e-6, max_value=1e6))
REJECTED = st.sampled_from([0, -1, -0.5, math.inf, -math.inf, math.nan, 10 ** 400, "auto"])
NUMBERS = mostly(POSITIVE, REJECTED)
COORDS = mostly(st.one_of(st.sampled_from([-1.0, -0.5, 0, 0.25, 0.5, 1, 2.0]),
                          st.floats(min_value=-1e6, max_value=1e6)), REJECTED)
WIDTHS = mostly(POSITIVE, st.sampled_from([0, -1, 1e-300, math.inf, math.nan]))

PROBLEMS = st.one_of(
    st.builds(lambda n, p: {"name": "polygon", "n": n, **p},
              mostly(st.sampled_from([3, 4]), st.just(2)),
              st.dictionaries(st.sampled_from(["p1", "p2", "p3"]), NUMBERS, max_size=2)),
    st.builds(lambda name, n: {"name": name, **n}, st.sampled_from(["l1-norm", "max-coordinate"]),
              mostly(st.sampled_from([{}, {"n": 1}, {"n": 2}, {"n": 3}]), st.just({"n": 0}))),
    st.builds(lambda name, n: {"name": name, **n}, st.sampled_from(["two-well-1d", "lsc-step-1d"]),
              mostly(st.sampled_from([{}, {"n": 1}]), st.just({"n": 2}))),
)


def dimension(problem):
    if problem["name"] == "polygon":
        return 2 * problem["n"] - 2
    return problem.get("n", 1)


def vectors(dim):
    return st.lists(COORDS, min_size=dim, max_size=dim)


def step(mode):
    """A step section: mostly a kind the mode takes, each parameter absent, auto or a number."""
    @st.composite
    def draw_step(draw):
        kind = draw(mostly(st.sampled_from(step_kinds(mode)), st.sampled_from(step_kinds())))
        params = {}
        for name, default in STEP_KINDS[kind].params.items():
            auto = [None, "auto"] if default == "auto" else [None]
            value = draw(mostly(st.one_of(st.sampled_from(auto), POSITIVE), REJECTED))
            if value is not None:
                params[name] = value
        return {"kind": kind, **params}

    return draw_step()


def optional(**keys):
    """A mapping of the drawn keys, a key drawn as None left out."""
    return st.fixed_dictionaries(keys).map(
        lambda d: {k: v for k, v in d.items() if v is not None})


PLANS = st.builds(lambda plan: {"plan": plan}, optional(
    h0=mostly(st.one_of(st.sampled_from([None, "auto"]), POSITIVE), REJECTED),
    stages=mostly(st.integers(1, 3), st.just(0)),
    decay=mostly(st.sampled_from([None, 0.5, 0.1, 1e-6, 0.999]), st.sampled_from([0, 1, 2])),
    beta=mostly(st.sampled_from([None, 0, 0.5, 1.0, 1e6]), st.just(-1)),
    couple_widths=st.sampled_from([None, False, True]),
    step=st.one_of(st.none(), step("plan"))))

SCHEDULES = st.builds(
    lambda step, width: {"schedule": {"step": step, "width": width}},
    step("schedule"),
    st.one_of(st.builds(lambda h: {"kind": "fixed", "h": h}, NUMBERS),
              st.builds(lambda h: {"kind": "coupled", **h},
                        st.one_of(st.just({}), st.builds(lambda h: {"h": h}, NUMBERS)))))


@st.composite
def constraints(draw, dim):
    """A box or a ball with no penalty or either config penalty, and a point inside it."""
    if draw(st.booleans()):
        lower = draw(vectors(dim))
        widths = draw(st.lists(WIDTHS, min_size=dim, max_size=dim))
        # a rejected entry stands for itself
        ok = [all(isinstance(v, (int, float)) and abs(v) <= 1e6 for v in pair)
              for pair in zip(lower, widths)]
        upper = [lo + w if fine else w for lo, w, fine in zip(lower, widths, ok)]
        section = {"type": "box", "lower": lower, "upper": upper}
        middle = [lo + 0.5 * w if fine else w for lo, w, fine in zip(lower, widths, ok)]
    else:
        middle = draw(vectors(dim))
        section = {"type": "ball", "center": middle, "radius": draw(WIDTHS)}
    penalty = draw(st.sampled_from([None, "distance", "ray-retraction"]))
    if penalty is not None:
        section["penalty"] = draw(optional(kind=st.just(penalty),
                                           M=st.one_of(st.none(), NUMBERS)))
        if penalty == "ray-retraction":
            section["penalty"]["anchor"] = draw(mostly(st.just(middle), vectors(dim)))
    return section, middle


@st.composite
def configs(draw):
    problem = draw(PROBLEMS)
    dim = dimension(problem)
    data = {"problem": problem,
            "kernel": draw(st.sampled_from(["sphere", "gaussian"])),
            "seeds": draw(mostly(
                st.one_of(st.lists(st.integers(0, 2 ** 64), min_size=1, max_size=3, unique=True),
                          st.fixed_dictionaries({"master": st.integers(0, 2 ** 40),
                                                 "count": st.integers(1, 3)})),
                st.one_of(st.lists(st.sampled_from([0, 1, -1]), max_size=3),
                          st.fixed_dictionaries({"master": st.integers(-2, 0),
                                                 "count": st.integers(0, 1)})))),
            "iterations": draw(mostly(st.integers(1, 3), st.just(0)))}
    batch_size = draw(mostly(st.sampled_from([None, 1, 2]), st.just(0)))
    if batch_size is not None:
        data["batch_size"] = batch_size
    data.update(draw(st.one_of(PLANS, SCHEDULES)))
    stages = data["plan"].get("stages", 11) if "plan" in data else 1
    needed = 2 * (batch_size or 1) * data["iterations"] * stages
    data["budget"] = max(1, needed + draw(mostly(st.sampled_from([0, 7]), st.just(-1))))
    inside = [[0.5] * dim]
    if problem["name"] != "polygon" and draw(st.booleans()):
        data["constraint"], middle = draw(constraints(dim))
        inside = [middle]
    elif problem["name"] != "polygon":
        inside.append([0.0] * dim)
    start = draw(mostly(st.sampled_from([None, "auto", *inside]), vectors(dim)))
    if start is not None:
        data["start"] = start
    return data


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
@given(configs())
def test_every_config_that_parses_runs(data):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        path = Path(tmp, "run.yaml")
        path.write_text(yaml.safe_dump(dict(data, output=str(out)), sort_keys=False),
                        encoding="utf-8")
        try:
            cfg = load_config(path)
        except ConfigError as err:
            assert err.line is not None, f"no line anchor: {err}"
            assert not out.exists()
            return
        try:
            csv_path, outcomes = execute_config(cfg)
        except EvaluationError:
            return
        assert len(outcomes) == len(cfg.seeds)
        assert len(list(out.glob("run-*.json"))) == len(cfg.seeds)
        assert csv_path.read_text(encoding="utf-8").count("\n") == len(cfg.seeds) + 1

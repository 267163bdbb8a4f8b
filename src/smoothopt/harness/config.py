"""Run configuration: one structured YAML file, validated with line anchors.

The file format is the README's "Config files" section.  Each key's type,
default and bound is one row of :data:`KEYS`; a problem's parameters are
walked from ``problems.problem_parameters``, and a step's from
``optimizer.STEP_KINDS``, whose kinds each section takes:

* plan: constant, constant-scaled, sphere-decaying, gaussian-decaying
* schedule: constant, sphere-fixed, sphere-decaying, gaussian-fixed,
  gaussian-decaying, gaussian-vanishing
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from ..continuation import SmoothingPlan, geometric_widths
from ..optimizer import ITERATE_TOL, STEP_KINDS, StepRule, WidthRule, step_kinds
from ..penalty import Ball, Box, FeasibleSet, PenaltySpec
from ..problems import make_problem, problem_names, problem_parameters

__all__ = ["KEYS", "REQUIRED", "ConfigError", "Key", "RunConfig", "constraint_set", "load_config",
           "parse_config", "problem_key", "projection_set", "smoothing_plan", "step_key"]

REQUIRED = object()  # the default of a key that must be given
_ABSENT = object()
_FLOAT_MAX, _NORMAL = sys.float_info.max, sys.float_info.min


class Key(NamedTuple):
    """A row of :data:`KEYS`: the rule of one config key."""

    type: Any            # int, float, bool, str, "vector" (a number per coordinate) or the choices
    default: Any = None  # REQUIRED, or what an absent key reads as
    bound: Any = None    # a minimum, "positive" (and finite), or an open interval (lo, hi)
    auto: bool = False   # "auto" is a value too
    only: str = ""       # the constraint type whose key it is


# The one table of config keys, by path; a section's known keys are its paths here.
KEYS: dict[str, Key] = {
    "problem.name": Key(tuple(problem_names()), REQUIRED),
    "kernel": Key(("sphere", "gaussian"), "sphere"),
    "seeds.master": Key(int, REQUIRED, 0),
    "seeds.count": Key(int, REQUIRED, 1),
    "budget": Key(int, REQUIRED, 1),
    "output": Key(str, "smoothopt-out"),
    "iterations": Key(int, REQUIRED, 1),
    "batch_size": Key(int, 1, 1),
    "plan.h0": Key(float, "auto", "positive", auto=True),
    "plan.stages": Key(int, 11, 1),
    "plan.decay": Key(float, 0.5, (0, 1)),
    "plan.beta": Key(float, 1.0, 0.0),
    "plan.couple_widths": Key(bool, False),
    "plan.step.kind": Key(step_kinds("plan"), "sphere-decaying"),
    "schedule.step.kind": Key(step_kinds("schedule"), REQUIRED),
    "schedule.width.kind": Key(("fixed", "coupled"), REQUIRED),
    "schedule.width.h": Key(float, None, "positive"),  # a fixed width needs it
    "constraint.type": Key(("box", "ball"), REQUIRED),
    "constraint.center": Key("vector", REQUIRED, only="ball"),
    "constraint.radius": Key(float, REQUIRED, "positive", only="ball"),
    "constraint.lower": Key("vector", REQUIRED, only="box"),
    "constraint.upper": Key("vector", REQUIRED, only="box"),
    "constraint.penalty.kind": Key(("distance", "ray-retraction"), PenaltySpec.kind),
    "constraint.penalty.M": Key(float, PenaltySpec.M, "positive"),
    "constraint.penalty.anchor": Key("vector"),  # ray-retraction needs it
    "start": Key("vector", "auto", auto=True),
}


def step_key(kind: str, name: str) -> Key:
    """The row of a parameter of a step kind: positive, its default from ``STEP_KINDS``."""
    default = STEP_KINDS[kind].params[name]
    return Key(float, REQUIRED if default is None else default, "positive", auto=default == "auto")


def problem_key(problem: str, name: str) -> Key:
    """The row of a parameter of ``problem``: a positive penalty coefficient of the
    polygon, or the vertex count (at least 3) or dimension ``n``."""
    if name != "n":
        return Key(float, None, "positive")
    return Key(int, REQUIRED, 3) if problem == "polygon" else Key(int, None, 1)


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key path and source line."""

    def __init__(self, message: str, path: str = "", line: int | None = None,
                 filename: str | None = None):
        self.path = path
        self.line = line
        self.filename = filename
        anchor = "" if filename is None else f"{filename}:{'' if line is None else f'{line}:'} "
        super().__init__(f"{anchor}{f'{path}: ' if path else ''}{message}")


def _line_map(text: str) -> dict[str, int]:
    """Map ``a.b[2].c`` key paths to 1-based source lines."""
    import yaml  # only a file read needs it: a mapping parses without it

    try:
        root = yaml.compose(text)
    except yaml.YAMLError:
        return {}
    lines: dict[str, int] = {}

    def walk(node, path):
        lines[path] = node.start_mark.line + 1
        if isinstance(node, yaml.MappingNode):
            for key, value in node.value:
                walk(value, f"{path}.{key.value}" if path else str(key.value))
        elif isinstance(node, yaml.SequenceNode):
            for i, value in enumerate(node.value):
                walk(value, f"{path}[{i}]")

    if root is not None:
        walk(root, "")
    return lines


@dataclass
class _Checker:
    """A parsed mapping with the line map and file name that anchor its errors."""

    data: dict
    lines: dict[str, int]
    filename: str | None

    def fail(self, path: str, message: str):
        # a missing key has no line of its own: anchor at its nearest parent,
        # the document for a top-level key
        parent = path
        while parent not in self.lines and "." in parent:
            parent = parent.rsplit(".", 1)[0]
        raise ConfigError(message, path=path, line=self.lines.get(parent, self.lines.get("")),
                          filename=self.filename)

    def section(self, path: str) -> dict:
        """The mapping at ``path`` (the root when empty), ``{}`` when absent."""
        node = self.get(path, {}) if path else self.data
        if not isinstance(node, dict):
            self.fail(path, f"{path.rsplit('.', 1)[-1]} must be a mapping")
        return node

    def get(self, path: str, default=None):
        """The value at ``path``, or ``default`` when absent (failing if it is REQUIRED)."""
        head, _, leaf = path.rpartition(".")
        node = self.section(head)
        if leaf in node:
            return node[leaf]
        if default is REQUIRED:
            self.fail(path, "required key is missing")
        return default

    def keys(self, path: str, known=None, what: str | None = None, only: str = ""):
        """Fail at the first key of the mapping at ``path`` not in ``known``, by default
        the table's keys there (a constraint's those of its type ``only``)."""
        prefix = f"{path}." if path else ""
        known = known or {p[len(prefix):].split(".")[0] for p, key in KEYS.items()
                          if p.startswith(prefix) and key.only in ("", only)}
        what = what or (f"{path.rsplit('.', 1)[-1]} key" if path else "key")
        for key in self.section(path):
            if key not in known:
                self.fail(f"{path}.{key}" if path else str(key),
                          f"unknown {what} (known keys: {sorted(known)})")

    def read(self, path: str, key: Key | None = None, dim: int | None = None):
        """The value at ``path`` checked by its row, ``KEYS[path]`` unless given; a
        vector has ``dim`` entries."""
        key = key or KEYS[path]
        value = self.get(path, REQUIRED if key.default is REQUIRED else _ABSENT)
        if value is _ABSENT:
            return key.default
        if key.auto and isinstance(value, str) and value == "auto":
            return "auto"
        if key.type is str:
            return str(value)
        if key.type is bool:
            if not isinstance(value, bool):
                self.fail(path, f"expected true or false, got {value!r}")
            return value
        if isinstance(key.type, tuple):
            if value not in key.type:
                self.fail(path, f"unknown {' '.join(path.split('.')[-2:])} {value!r}: "
                                f"expected one of {key.type}")
            return value
        if key.type == "vector":
            what = "'auto' or a starting point" if key.auto else "a list"
            if not isinstance(value, list) or len(value) != dim:
                self.fail(path, f"expected {what} of {dim} numbers (the problem's dimension), "
                                f"got {value!r}")
            for i, e in enumerate(value):
                if isinstance(e, bool) or not isinstance(e, (int, float)) \
                        or not abs(e) <= _FLOAT_MAX:
                    self.fail(f"{path}[{i}]", f"expected {what} of finite numbers, got {e!r}")
            return np.asarray(value, dtype=float)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(path, f"expected a number, got {value!r}")
        leaf = path.rsplit(".", 1)[-1]
        if key.bound == "positive" and not 0 < value <= _FLOAT_MAX:
            self.fail(path, f"{leaf} must be positive and finite, got {value!r}")
        if not abs(value) <= _FLOAT_MAX:  # inf, nan, or an integer no float holds
            self.fail(path, f"expected a finite number, got {value!r}")
        if key.type is int and int(value) != value:
            self.fail(path, f"expected an integer, got {value!r}")
        if isinstance(key.bound, tuple) and not key.bound[0] < value < key.bound[1]:
            self.fail(path, f"{leaf} must lie in {key.bound}, got {value!r}")
        if isinstance(key.bound, (int, float)) and value < key.bound:
            self.fail(path, f"must be at least {key.bound}, got {value!r}")
        return key.type(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; ``plan`` also holds the resolved ``h0``, ``h_auto``
    (half the projection set's diameter), the stage ``widths`` and each stage's ``D``.
    ``source`` anchors the step check that waits for the Lipschitz estimate."""

    problem_name: str
    problem_params: dict
    kernel: str
    seeds: tuple[int, ...]
    budget: int
    output: str
    iterations: int
    batch_size: int
    plan: dict
    constraint: dict | None = None
    start: Any = "auto"
    raw: dict = field(default_factory=dict, repr=False)
    source: _Checker | None = field(default=None, repr=False, compare=False)

    @property
    def stages(self) -> int:
        return self.plan["stages"]

    @property
    def planned_evaluations(self) -> int:
        return 2 * self.batch_size * self.iterations * self.stages


def parse_config(data: dict, *, lines: dict[str, int] | None = None,
                 filename: str | None = None) -> RunConfig:
    """Validate a parsed mapping; raise :class:`ConfigError` on any defect."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping", filename=filename)
    c = _Checker(data, lines or {}, filename)

    c.keys("")
    name, problem_params = _check_problem(c)
    kernel = c.read("kernel")

    seeds_raw = c.get("seeds", REQUIRED)
    if isinstance(seeds_raw, dict):
        c.keys("seeds")
        master = c.read("seeds.master")
        seeds = tuple(range(master, master + c.read("seeds.count")))
    elif isinstance(seeds_raw, list):
        if not seeds_raw:
            c.fail("seeds", "seed list must be non-empty")
        first: dict[int, int] = {}
        for i, s in enumerate(seeds_raw):
            if isinstance(s, bool) or not isinstance(s, int) or s < 0:
                c.fail(f"seeds[{i}]", f"seeds must be integers of at least 0, got {s!r}")
            if first.setdefault(s, i) != i:  # both runs would write one record path
                c.fail(f"seeds[{i}]", f"seed {s} repeats seeds[{first[s]}]")
        seeds = tuple(seeds_raw)
    else:
        c.fail("seeds", "seeds must be a list or {master, count}")

    budget = c.read("budget")
    output = c.read("output")
    if not next(p for p in (Path(output), *Path(output).parents) if p.exists()).is_dir():
        c.fail("output", f"output {output!r} is, or lies under, a file: the run could not "
                         f"write its records")
    iterations = c.read("iterations")
    batch_size = c.read("batch_size")

    plan = _check_plan(c)
    needed = 2 * batch_size * iterations * plan["stages"]
    if budget < needed:
        c.fail("budget", f"evaluation budget {budget} is below 2*K*T*stages = {needed}")

    constraint = c.get("constraint")
    if constraint is not None:
        constraint = _check_constraint(c, name, problem_params.get("n"))

    # the projection set the runner builds and the stages it runs, each step
    # sized to its stage or a schedule to the whole set; only a constraint's
    # set can lack a width
    domain = projection_set(name, problem_params.get("n"), constraint)
    diameter = domain.diameter
    if not 0 < diameter < math.inf:
        ctype = constraint["type"]
        c.fail("constraint.radius" if ctype == "ball" else "constraint.upper",
               f"the {ctype} is a single point to float precision, or unbounded: its "
               f"projection set has diameter {diameter!r}, which must be positive and finite")
    plan["h_auto"] = 0.5 * diameter
    plan["h0"] = plan["h_auto"] if plan["h0"] == "auto" else plan["h0"]
    widths = plan["widths"] = geometric_widths(plan["h0"], plan["stages"], plan["decay"])
    if not all(a > b > 0 for a, b in zip(widths, widths[1:])):
        c.fail("plan.decay", f"the stage widths h0 * decay**s must be positive and decreasing "
                             f"in floating point, got {widths[-1]!r} from h0 = {plan['h0']!r}")
    plan["D"] = (diameter,) if plan["mode"] == "schedule" else tuple(2.0 * h for h in widths)

    x = c.read("start", dim=domain.dimension)
    # with sgd_run's tolerance
    if not isinstance(x, str) and np.linalg.norm(x - domain.project(x), axis=-1) > ITERATE_TOL:
        c.fail("start", f"starting point must lie in the projection set, "
                        f"from {domain.lower} to {domain.upper}")

    cfg = RunConfig(problem_name=name, problem_params=problem_params, kernel=kernel, seeds=seeds,
                    budget=budget, output=output, iterations=iterations, batch_size=batch_size,
                    plan=plan, constraint=constraint, start=data.get("start", "auto"), raw=data,
                    source=c)
    smoothing_plan(cfg, domain)
    return cfg


def _check_problem(c: _Checker) -> tuple[str, dict]:
    """The problem's name and its parameters, checked as ``make_problem`` takes them."""
    name = c.read("problem.name")
    c.keys("problem", ["name", *problem_parameters(name)], f"parameter of {name!r}")
    params = {key: v for key in problem_parameters(name)  # an absent parameter reads None
              if (v := c.read(f"problem.{key}", problem_key(name, key))) is not None}
    n = params.get("n")
    if n is not None and name != "polygon" and make_problem(name, n=n).dimension != n:
        # a 1-D calibration function would ignore it
        c.fail("problem.n", f"{name!r} is {make_problem(name).dimension}-dimensional, got n = {n}")
    return name, params


def _check_constraint(c: _Checker, name: str, n: int | None) -> dict:
    """Validate the constraint set and its penalty, as the runner will build them."""
    if name == "polygon":
        c.fail("constraint", "the polygon problem carries its own penalties")
    dim = projection_set(name, n, None).dimension

    ctype = c.read("constraint.type")
    c.keys("constraint", only=ctype)
    if ctype == "ball":
        c.read("constraint.center", dim=dim)
        c.read("constraint.radius")
    elif np.any(c.read("constraint.lower", dim=dim) > c.read("constraint.upper", dim=dim)):
        c.fail("constraint.upper", "upper bound below the lower bound in some coordinate")
    feasible = constraint_set(c.get("constraint"))

    c.keys("constraint.penalty")
    if c.get("constraint.penalty.kind") == "constraint-sum":
        c.fail("constraint.penalty.kind",
               f"constraint-sum needs explicit constraint functions, which a {ctype} "
               f"constraint has none of; use distance or ray-retraction")
    kind, M = c.read("constraint.penalty.kind"), c.read("constraint.penalty.M")
    anchor = c.read("constraint.penalty.anchor", dim=dim)
    if kind == "ray-retraction":
        if anchor is None:
            c.fail("constraint.penalty", "ray-retraction needs an interior 'anchor' point")
        if not feasible.contains(anchor):
            c.fail("constraint.penalty.anchor", "anchor must lie in the constraint set")
    return dict(c.get("constraint"), penalty=dict(c.section("constraint.penalty"), kind=kind, M=M))


def projection_set(name: str, n: int | None, constraint: dict | None) -> Box:
    """The box ``sgd_run`` projects onto: the problem's domain or a constraint's inflated box."""
    if constraint is None:
        return make_problem(name, n=n).domain
    return constraint_set(constraint).inflated_box(0.1)


def constraint_set(constraint: dict) -> FeasibleSet:
    """The Ball or Box that a checked ``constraint`` section describes."""
    if constraint["type"] == "ball":
        return Ball(np.asarray(constraint["center"], dtype=float), float(constraint["radius"]))
    return Box(np.asarray(constraint["lower"], dtype=float),
               np.asarray(constraint["upper"], dtype=float))


def _check_plan(c: _Checker) -> dict:
    """The ``plan`` section, or a ``schedule`` section as the one-stage plan it is,
    with ``mode`` naming the section."""
    if (c.get("plan") is None) == (c.get("schedule") is None):
        c.fail("plan", "exactly one of 'plan' and 'schedule' must be given")
    mode = "plan" if c.get("schedule") is None else "schedule"
    kind = c.read(f"{mode}.step.kind")
    c.keys(mode)
    params = STEP_KINDS[kind].params
    c.keys(f"{mode}.step", ["kind", *params], f"parameter of step kind {kind!r}")
    step = {"kind": kind, **{p: c.read(f"{mode}.step.{p}", step_key(kind, p)) for p in params}}
    out = {path[5:]: c.read(path) for path in KEYS  # a schedule's: the defaults
           if path.startswith("plan.") and path.count(".") == 1}
    if mode == "plan":
        if out["couple_widths"] and "L" not in STEP_KINDS[kind].needs:
            c.fail("plan.couple_widths",
                   f"coupled widths h_t = L * rho_t / K need a step rule with L and K; "
                   f"{kind!r} has neither")
        return dict(out, mode=mode, step=step)
    c.keys("schedule.width")
    coupled = c.read("schedule.width.kind") == "coupled"
    h = c.read("schedule.width.h")
    if h is None and not coupled:
        c.fail("schedule.width.h", "required key is missing")
    # a schedule is one stage, where decay and beta never act
    return dict(out, mode=mode, step=step, stages=1, couple_widths=coupled,
                h0="auto" if h is None else h)


def smoothing_plan(cfg: RunConfig, domain: Box, L: float | None = None) -> SmoothingPlan | None:
    """The config's stages on the projection set ``domain`` with the Lipschitz estimate
    ``L``, or ``None`` if a rule takes ``L`` and none is given.  Fails at the step where,
    at t = 1 or T, ``sgd_run`` would reject or overflow: a step size must be positive and
    T of them times the largest coordinate of ``domain`` (at least 1) finite; a width
    must be normal, and it and a move ``rho * L`` at most 2**52 times that coordinate,
    beyond which a probe or step rounds the iterate away."""
    plan, K, T = cfg.plan, cfg.batch_size, cfg.iterations
    c = cfg.source or _Checker(cfg.raw, {}, None)
    where, whole = f"{plan['mode']}.step", plan["mode"] == "schedule"
    if L is None and (STEP_KINDS[plan["step"]["kind"]].make is not None
                      or plan["step"].get("L") == "auto" or plan["couple_widths"] and whole):
        return None
    try:
        steps = tuple(StepRule.build(plan["step"], h=h, D=D, L=L, n=domain.dimension, K=K, T=T)
                      for h, D in zip(plan["widths"], plan["D"]))
    except ValueError as err:  # a field the rule needs is 0, or rounds to it
        c.fail(where, f"step sizes must be positive and finite: {err}")
    widths, width_rule = plan["widths"], None
    if plan["couple_widths"]:
        width_rule = WidthRule.coupled(L=L if whole else steps[0].L, K=K)
        widths = (None,) if whole else widths
    out = SmoothingPlan(widths=widths, steps=steps, iterations=T, batch_size=K,
                        ravine_beta=plan["beta"], width_rule=width_rule)
    reach = max(1.0, float(np.max(np.abs([domain.lower, domain.upper]))))
    for s in range(out.stages):
        with np.errstate(all="ignore"):  # an overflow is what is checked
            rho, h = (v.tolist() for v in out.schedule(s).values(np.array([1, T])))
        if not (0 < min(rho) and T * max(rho) * reach < math.inf and _NORMAL <= min(h)
                and max(max(h), max(rho) * (L or 0)) <= 2.0 ** 52 * reach):
            c.fail(where, f"step sizes must be positive and finite, also summed over T steps "
                          f"at coordinates up to {reach!r}, widths normal, and widths and moves "
                          f"rho * L at most 2**52 times those coordinates; at t = 1 and "
                          f"T = {T} of stage {s}, rho = {rho!r} and h = {h!r}, with L = {L!r}")
    return out


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML config file."""
    import yaml

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", filename=str(path)) from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ConfigError(f"invalid YAML: {exc}", line=mark and mark.line + 1,
                          filename=str(path)) from None
    if data is None:
        raise ConfigError("config file is empty", filename=str(path))
    return parse_config(data, lines=_line_map(text), filename=str(path))

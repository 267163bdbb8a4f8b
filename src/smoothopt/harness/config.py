"""Run configuration: one structured YAML file, validated with line anchors.

A config chooses a problem, a kernel, seeds, an evaluation budget, an output
directory, and either a multi-stage smoothing ``plan`` or a ``schedule``,
which is the one-stage case of a plan.  Every default from the library is
overridable here so that a config file is the single source of truth for a
reproducible run.

Example::

    problem: {name: polygon, n: 3}
    kernel: sphere
    seeds: {master: 42, count: 10}     # or an explicit list [1, 2, 3]
    budget: 100000
    output: out/
    iterations: 150                    # T per stage
    batch_size: 2                      # K
    plan:
      h0: auto                         # half the diameter of the projection set
      stages: 11
      decay: 0.5
      beta: 1.0
      step: {kind: constant-scaled, alpha: 0.1}

A ``schedule`` (a ``step`` and a ``width``, ``{kind: fixed, h: ...}`` or
``{kind: coupled}``) runs as a one-stage plan sized to the whole domain:
``D: auto`` is its diameter, and a coupled width takes the resolved
Lipschitz constant, its optional ``h`` only scaling that estimate.  The step
kinds each section takes, with their parameters, are in
``optimizer.STEP_KINDS``:

* plan: constant, constant-scaled, sphere-decaying, gaussian-decaying
* schedule: constant, sphere-fixed, sphere-decaying, gaussian-fixed,
  gaussian-decaying, gaussian-vanishing
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..continuation import geometric_widths
from ..optimizer import ITERATE_TOL, STEP_KINDS, StepRule, step_kinds
from ..penalty import Ball, Box, FeasibleSet, PenaltySpec
from ..problems import make_problem, problem_names, problem_parameters

__all__ = ["ConfigError", "RunConfig", "constraint_set", "load_config", "parse_config",
           "projection_set", "stage_steps"]

_KERNELS = ("sphere", "gaussian")
_TOP_KEYS = ("problem", "kernel", "seeds", "budget", "output", "iterations", "batch_size",
             "plan", "schedule", "constraint", "start")
_CONSTRAINT_KEYS = {"ball": ("type", "center", "radius", "penalty"),
                    "box": ("type", "lower", "upper", "penalty")}
_PENALTY_KEYS = ("kind", "M", "anchor")
_PLAN_KEYS = ("h0", "stages", "decay", "beta", "couple_widths", "step")
_ABSENT = object()
_FLOAT_MAX = sys.float_info.max


class ConfigError(ValueError):
    """Invalid configuration; carries the offending key path and source line."""

    def __init__(self, message: str, path: str = "", line: int | None = None,
                 filename: str | None = None):
        self.path = path
        self.line = line
        self.filename = filename
        anchor = ""
        if filename is not None:
            anchor = f"{filename}:"
            if line is not None:
                anchor += f"{line}:"
            anchor += " "
        where = f"{path}: " if path else ""
        super().__init__(f"{anchor}{where}{message}")


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
                sub = f"{path}.{key.value}" if path else str(key.value)
                lines.setdefault(sub, key.start_mark.line + 1)
                walk(value, sub)
        elif isinstance(node, yaml.SequenceNode):
            for i, value in enumerate(node.value):
                walk(value, f"{path}[{i}]")

    if root is not None:
        walk(root, "")
    return lines


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (see module docstring for the file format);
    ``plan`` also holds the resolved ``h0``, ``h_auto`` (half the projection
    set's diameter), the run's stage ``widths`` and each stage's ``D: auto``."""

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

    @property
    def stages(self) -> int:
        return self.plan["stages"]

    @property
    def planned_evaluations(self) -> int:
        return 2 * self.batch_size * self.iterations * self.stages


class _Checker:
    def __init__(self, data: dict, lines: dict[str, int], filename: str | None):
        self.data = data
        self.lines = lines
        self.filename = filename

    def fail(self, path: str, message: str):
        # a missing key has no line of its own: anchor at its nearest parent,
        # the document for a top-level key
        parent = path
        while parent not in self.lines and "." in parent:
            parent = parent.rsplit(".", 1)[0]
        raise ConfigError(message, path=path, line=self.lines.get(parent, self.lines.get("")),
                          filename=self.filename)

    def get(self, path: str, default=None, required=False):
        node: Any = self.data
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                if required:
                    self.fail(path, "required key is missing")
                return default
            node = node[part]
        return node

    def keys(self, path: str, known, what: str = "key"):
        """Fail at the first key of the mapping at `path` (the root when empty) not in `known`."""
        for key in self.get(path, default={}) if path else self.data:
            if key not in known:
                self.fail(f"{path}.{key}" if path else str(key),
                          f"unknown {what} (known keys: {sorted(known)})")

    def number(self, path: str, *, default=None, required=False, minimum=None,
               integer=False, allow_auto=False, positive=False):
        value = self.get(path, default=_ABSENT, required=required)
        if value is _ABSENT:
            return default
        if allow_auto and value == "auto":
            return "auto"
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(path, f"expected a number, got {value!r}")
        if positive and not 0 < value <= _FLOAT_MAX:
            self.fail(path, f"{path.rsplit('.', 1)[-1]} must be positive and finite, got {value!r}")
        if not abs(value) <= _FLOAT_MAX:  # inf, nan, or an integer no float holds
            self.fail(path, f"expected a finite number, got {value!r}")
        if integer and int(value) != value:
            self.fail(path, f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            self.fail(path, f"must be at least {minimum}, got {value!r}")
        return int(value) if integer else float(value)

    def vector(self, path: str, dim: int, what: str = "a list") -> np.ndarray:
        """A list of `dim` finite numbers; a bad entry fails at its own line."""
        v = self.get(path, required=True)
        if not isinstance(v, list) or len(v) != dim:
            self.fail(path, f"expected {what} of {dim} numbers (the problem's dimension), got {v!r}")
        for i, e in enumerate(v):
            if isinstance(e, bool) or not isinstance(e, (int, float)) or not abs(e) <= _FLOAT_MAX:
                self.fail(f"{path}[{i}]", f"expected {what} of finite numbers, got {e!r}")
        return np.asarray(v, dtype=float)

    def boolean(self, path: str, *, default: bool) -> bool:
        value = self.get(path, default=default)
        if not isinstance(value, bool):
            self.fail(path, f"expected true or false, got {value!r}")
        return value


def parse_config(data: dict, *, lines: dict[str, int] | None = None,
                 filename: str | None = None) -> RunConfig:
    """Validate a parsed mapping; raise :class:`ConfigError` on any defect."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping", filename=filename)
    c = _Checker(data, lines or {}, filename)

    c.keys("", _TOP_KEYS)
    name, problem_params = _check_problem(c)

    kernel = c.get("kernel", default="sphere")
    if kernel not in _KERNELS:
        c.fail("kernel", f"kernel must be one of {_KERNELS}, got {kernel!r}")

    seeds_raw = c.get("seeds", required=True)
    if isinstance(seeds_raw, dict):
        c.keys("seeds", ("master", "count"))
        master = c.number("seeds.master", required=True, integer=True, minimum=0)
        count = c.number("seeds.count", required=True, integer=True, minimum=1)
        seeds = tuple(master + i for i in range(count))
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

    budget = c.number("budget", required=True, integer=True, minimum=1)
    output = str(c.get("output", default="smoothopt-out"))
    if not next(p for p in (Path(output), *Path(output).parents) if p.exists()).is_dir():
        c.fail("output", f"output {output!r} is, or lies under, a file: the run could not "
                         f"write its records")
    iterations = c.number("iterations", required=True, integer=True, minimum=1)
    batch_size = c.number("batch_size", default=1, integer=True, minimum=1)

    plan = _check_plan(c)
    needed = 2 * batch_size * iterations * plan["stages"]
    if budget < needed:
        c.fail("budget", f"evaluation budget {budget} is below 2*K*T*stages = {needed}")

    constraint = c.get("constraint")
    if constraint is not None:
        constraint = _check_constraint(c, name, constraint)

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
    _check_steps(c, plan, domain.dimension, batch_size, iterations)

    start = c.get("start", default="auto")
    if not (isinstance(start, str) and start == "auto"):
        # with sgd_run's tolerance
        x = c.vector("start", domain.dimension, "'auto' or a starting point")
        if np.linalg.norm(x - domain.project(x), axis=-1) > ITERATE_TOL:
            c.fail("start", f"starting point must lie in the projection set, "
                            f"from {domain.lower} to {domain.upper}")

    return RunConfig(
        problem_name=name,
        problem_params=problem_params,
        kernel=kernel,
        seeds=seeds,
        budget=int(budget),
        output=output,
        iterations=int(iterations),
        batch_size=int(batch_size),
        plan=plan,
        constraint=constraint,
        start=start,
        raw=data,
    )


def _check_problem(c: _Checker) -> tuple[str, dict]:
    """The problem's name and its parameters, checked as ``make_problem`` takes them."""
    name = c.get("problem.name", required=True)
    if name not in problem_names():
        c.fail("problem.name", f"unknown problem {name!r}; known: {problem_names()}")
    polygon = name == "polygon"
    known = problem_parameters(name)
    c.keys("problem", ["name", *known], f"parameter of {name!r}")
    params = {}
    for key in known:
        if key == "n" and (polygon or "n" in c.get("problem")):
            params["n"] = c.number("problem.n", required=True, integer=True,
                                   minimum=3 if polygon else 1)
            dim = params["n"] if polygon else make_problem(name, n=params["n"]).dimension
            if dim != params["n"]:  # a 1-D calibration function would ignore it
                c.fail("problem.n", f"{name!r} is {dim}-dimensional, got n = {params['n']}")
        elif key in c.get("problem"):  # a penalty coefficient of the polygon
            params[key] = c.number(f"problem.{key}", positive=True)
    return name, params


def _check_constraint(c: _Checker, name: str, constraint) -> dict:
    """Validate the constraint set and its penalty, as the runner will build them."""
    if name == "polygon":
        c.fail("constraint", "the polygon problem carries its own penalties")
    if not isinstance(constraint, dict):
        c.fail("constraint", "constraint must be a mapping")
    n = c.number("problem.n", default=1, integer=True, minimum=1)
    dim = projection_set(name, n, None).dimension

    ctype = c.get("constraint.type")
    if not isinstance(ctype, str) or ctype not in _CONSTRAINT_KEYS:
        c.fail("constraint.type", f"constraint type must be 'box' or 'ball', got {ctype!r}")
    c.keys("constraint", _CONSTRAINT_KEYS[ctype], f"key of a {ctype} constraint")
    if ctype == "ball":
        c.vector("constraint.center", dim)
        c.number("constraint.radius", required=True, positive=True)
    else:
        lower, upper = c.vector("constraint.lower", dim), c.vector("constraint.upper", dim)
        if np.any(lower > upper):
            c.fail("constraint.upper", "upper bound below the lower bound in some coordinate")
    feasible = constraint_set(constraint)

    pen = c.get("constraint.penalty", default={})
    if not isinstance(pen, dict):
        c.fail("constraint.penalty", "penalty must be a mapping")
    c.keys("constraint.penalty", _PENALTY_KEYS, "penalty key")
    kind = pen.get("kind", PenaltySpec.kind)
    if kind == "constraint-sum":
        c.fail("constraint.penalty.kind",
               f"constraint-sum needs explicit constraint functions, which a {ctype} "
               f"constraint has none of; use distance or ray-retraction")
    if kind not in ("distance", "ray-retraction"):
        c.fail("constraint.penalty.kind", f"unknown penalty kind {kind!r}")
    M = c.number("constraint.penalty.M", default=PenaltySpec.M, positive=True)
    if kind == "ray-retraction":
        if "anchor" not in pen:
            c.fail("constraint.penalty", "ray-retraction needs an interior 'anchor' point")
        if not feasible.contains(c.vector("constraint.penalty.anchor", dim)):
            c.fail("constraint.penalty.anchor", "anchor must lie in the constraint set")
    return dict(constraint, penalty=dict(pen, kind=kind, M=M))


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
    plan, schedule = c.get("plan"), c.get("schedule")
    if (plan is None) == (schedule is None):
        c.fail("plan", "exactly one of 'plan' and 'schedule' must be given")
    mode = "plan" if schedule is None else "schedule"
    if not isinstance(c.get(mode), dict):
        c.fail(mode, f"{mode} must be a mapping")
    step = c.get(f"{mode}.step", default={"kind": "sphere-decaying"}, required=mode == "schedule")
    if not isinstance(step, dict) or "kind" not in step:
        c.fail(f"{mode}.step", "step rule must be a mapping with a 'kind'")
    kind = step["kind"]
    if kind not in step_kinds(mode):
        c.fail(f"{mode}.step.kind", f"step kind must be one of {step_kinds(mode)}, got {kind!r}")
    c.keys(mode, _PLAN_KEYS if mode == "plan" else ("step", "width"), f"{mode} key")
    entry = STEP_KINDS[kind]
    c.keys(f"{mode}.step", ["kind", *entry.params], f"parameter of step kind {kind!r}")
    for name, default in entry.params.items():  # each one a step rule uses
        c.number(f"{mode}.step.{name}", default=default, required=default is None,
                 allow_auto=default == "auto", positive=True)
    # a schedule is one stage, where decay and beta never act
    out = {"mode": mode, "step": dict(step), "stages": 1, "decay": 0.5, "beta": 1.0}
    if mode == "plan":
        out["h0"] = c.number("plan.h0", default="auto", allow_auto=True, positive=True)
        out["stages"] = c.number("plan.stages", default=11, integer=True, minimum=1)
        out["decay"] = c.number("plan.decay", default=0.5)
        if not 0 < out["decay"] < 1:
            c.fail("plan.decay", f"decay must lie in (0, 1), got {out['decay']!r}")
        out["beta"] = c.number("plan.beta", default=1.0, minimum=0.0)
        out["couple_widths"] = c.boolean("plan.couple_widths", default=False)
        if out["couple_widths"] and "L" not in entry.needs:
            c.fail("plan.couple_widths",
                   f"coupled widths h_t = L * rho_t / K need a step rule with L and K; "
                   f"{kind!r} has neither")
        return out
    width = c.get("schedule.width", required=True)
    if not isinstance(width, dict) or width.get("kind") not in ("fixed", "coupled"):
        c.fail("schedule.width", "width must be {kind: fixed, h: ...} or {kind: coupled}")
    c.keys("schedule.width", ("kind", "h"), "width key")
    out["couple_widths"] = width["kind"] == "coupled"
    h = c.number("schedule.width.h", required=not out["couple_widths"], minimum=0.0,
                 positive=not out["couple_widths"])
    out["h0"] = (h or "auto") if out["couple_widths"] else h
    return out


def stage_steps(plan: dict, n: int, K: int, T: int, L: float | None = None) -> tuple[StepRule, ...]:
    """Each stage's step rule of a checked ``plan``, the estimated ``L`` given."""
    return tuple(StepRule.build(plan["step"], h=h, D=D, L=L, n=n, K=K, T=T)
                 for h, D in zip(plan["widths"], plan["D"]))


def _check_steps(c: _Checker, plan: dict, n: int, K: int, T: int):
    """Fail where a stage's step size, monotone in ``t``, leaves (0, inf) at t = 1 or T.

    A rule that takes the Lipschitz estimate (``L: auto``, or ``constant-scaled``'s
    ``alpha * h / L``) is known only at run time, where ``sgd_run`` checks it.
    """
    entry = STEP_KINDS[plan["step"]["kind"]]
    if entry.make is not None or plan["step"].get("L", entry.params.get("L")) == "auto":
        return
    for s, rule in enumerate(stage_steps(plan, n, K, T)):
        with np.errstate(all="ignore"):  # an overflow is what is checked
            first, last = rule.value(np.array([1, T])).tolist()
        if not (0 < first < math.inf and 0 < last < math.inf):
            c.fail(f"{plan['mode']}.step", f"step sizes must be positive and finite, got "
                                           f"rho_1 = {first!r} and rho_T = {last!r} at stage {s}")


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
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ConfigError(f"invalid YAML: {exc}", line=line, filename=str(path)) from None
    if data is None:
        raise ConfigError("config file is empty", filename=str(path))
    return parse_config(data, lines=_line_map(text), filename=str(path))

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothopt.harness.config import parse_config
from smoothopt.harness.runner import build_problem
from smoothopt.problems import (
    PolygonProblem,
    calibration,
    make_problem,
    normal_cdf,
    problem_names,
)
from smoothopt.smoothing import Kernel, smoothed_value


SQRT3_4 = math.sqrt(3.0) / 4.0


def polygon_area(r, phi) -> float:
    """Fan-triangulation area ``0.5 * sum r_{i+1} r_i sin(phi_{i+1})``: the reference."""
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if r.shape != phi.shape or r.ndim != 1:
        raise ValueError("r and phi must be 1-D arrays of equal length")
    return 0.5 * float(np.sum(r[1:] * r[:-1] * np.sin(phi[1:])))


def penalized(poly, z) -> float:
    """Penalized area at one raw decision vector: the one-row call of the batch form."""
    return float(poly.penalized_batch(z)[0])


def feasible_samples(problem: PolygonProblem, rng, count=50):
    """Rejection-sample raw decision vectors satisfying every constraint."""
    n = problem.n
    out = []
    while len(out) < count:
        r = rng.uniform(0.0, 1.0, size=n)
        phi = rng.uniform(0.0, problem.phi_max, size=n)
        r[0] = phi[0] = 0.0
        if phi.sum() > math.pi:
            phi *= rng.uniform(0.3, 1.0) * math.pi / phi.sum()
        theta = np.cumsum(phi)
        i, j = np.triu_indices(n, k=1)
        d = np.sqrt(np.maximum(
            r[i] ** 2 + r[j] ** 2 - 2 * r[i] * r[j] * np.cos(theta[j] - theta[i]), 0.0))
        if np.all(d <= 1.0):
            out.append(np.concatenate([r, phi]))
    return out


class TestPolygonArea:
    def test_zero_radii(self):
        assert polygon_area(np.zeros(4), np.full(4, 0.3)) == 0.0

    def test_equilateral_triangle(self):
        area = polygon_area([0, 1, 1], [0, math.pi / 3, math.pi / 3])
        assert area == pytest.approx(SQRT3_4, abs=1e-12)

    def test_unit_diagonal_square(self):
        s = 1 / math.sqrt(2)
        area = polygon_area([0, s, 1, s], [0, math.pi / 4, math.pi / 4, math.pi / 4])
        assert area == pytest.approx(0.5, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            polygon_area([0, 1], [0, 1, 2])


class TestPolygonPenalized:
    def test_feasible_point_gives_area(self):
        poly = PolygonProblem(3)
        z = np.array([0, 1, 1, 0, math.pi / 3, math.pi / 3])
        assert penalized(poly, z) == pytest.approx(SQRT3_4, abs=1e-12)

    def test_golden_value_angle_and_diameter_violation(self):
        # r = (0,1,1), phi = (0, 2pi/3, 2pi/3): angle sum 4pi/3 rescales the
        # area to the right angle, the (2,3) distance sqrt(3) breaks the
        # diameter cap; value recomputed by hand from the composed formulas
        poly = PolygonProblem(3)
        z = np.array([0, 1, 1, 0, 2 * math.pi / 3, 2 * math.pi / 3])
        expected = 0.5 - math.pi / 3 - (math.sqrt(3.0) - 1.0)
        assert penalized(poly, z) == pytest.approx(expected, abs=1e-12)

    def test_box_violation_costs_p3_times_distance(self):
        poly = PolygonProblem(3)
        inside = np.array([0, 1, 1, 0, math.pi / 3, math.pi / 3])
        outside = inside.copy()
        outside[1] = 1.5  # r_2 beyond the box by 0.5
        expected = penalized(poly, inside) - 10.0 * 0.5
        assert penalized(poly, outside) == pytest.approx(expected, abs=1e-12)

    def test_equals_area_exactly_on_feasible_points(self):
        rng = np.random.default_rng(0)
        for n in (3, 4, 6):
            poly = PolygonProblem(n)
            for z in feasible_samples(poly, rng, count=30):
                area = polygon_area(z[:n], z[n:])
                assert penalized(poly, z) == area

    def test_total_and_finite_everywhere(self):
        rng = np.random.default_rng(1)
        poly = PolygonProblem(5)
        Z = rng.uniform(-50.0, 50.0, size=(200, 10))
        vals = poly.penalized_batch(Z)
        assert np.all(np.isfinite(vals))

    def test_never_exceeds_ideal_on_feasible_region(self):
        # the exact penalty must not reward infeasibility: the supremum over a
        # broad random cloud stays at or below the known optimum
        rng = np.random.default_rng(2)
        for n, ideal in ((3, SQRT3_4), (4, 0.5)):
            poly = PolygonProblem(n)
            Z = rng.uniform(-1.0, 2.0, size=(20_000, 2 * n))
            assert poly.penalized_batch(Z).max() <= ideal + 1e-9

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(3)
        poly = PolygonProblem(4)
        Z = rng.uniform(-2.0, 3.0, size=(20, 8))
        batch = poly.penalized_batch(Z)
        for z, v in zip(Z, batch):
            assert penalized(poly, z) == v

    def test_pinned_coordinates_round_trip(self):
        poly = PolygonProblem(4)
        v = np.arange(6, dtype=float) / 10.0
        z = poly.embed(v)[0]
        assert z[0] == 0.0 and z[4] == 0.0
        np.testing.assert_array_equal(np.concatenate([z[1:4], z[5:]]), v)

    def test_objective_is_negated_penalty(self):
        poly = PolygonProblem(3)
        v = np.array([1.0, 1.0, math.pi / 3, math.pi / 3])
        assert poly.objective_batch(v[None])[0] == pytest.approx(-SQRT3_4, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolygonProblem(2)
        with pytest.raises(ValueError):
            PolygonProblem(3, p3=0.0)
        with pytest.raises(ValueError):
            PolygonProblem(3).penalized_batch(np.zeros(4))

    def test_ideal_values(self):
        assert PolygonProblem(3).ideal_value() == math.sqrt(3.0) / 4.0  # the CSVs keep its bits
        assert PolygonProblem(4).ideal_value() == 0.5
        assert PolygonProblem(20).ideal_value() == math.pi / 4  # circle-limit bound
        # Reinhardt's regular polygons for odd n, the known optima for n = 6 and 8
        for n, area in ((5, 0.657164), (6, 0.674981), (7, 0.719741), (8, 0.726868),
                        (9, 0.745619)):
            assert PolygonProblem(n).ideal_value() == pytest.approx(area, abs=5e-7), n
        for n in (10, 12):
            assert PolygonProblem(n).ideal_value() == math.pi / 4
        # each known value lies below the circle limit, and grows with n
        values = [PolygonProblem(n).ideal_value() for n in range(3, 10)]
        assert values == sorted(values) and values[-1] < math.pi / 4


class TestCalibration:
    def test_known_minima(self):
        for name in problem_names():
            if name == "polygon":
                continue
            cal = calibration(name, 3)
            assert cal.fn(cal.minimizer) == pytest.approx(cal.min_value, abs=1e-12)

    def test_l1(self):
        cal = calibration("l1-norm", 4)
        assert cal.fn(np.zeros(4)) == 0.0
        assert cal.lipschitz == pytest.approx(2.0)
        np.testing.assert_array_equal(cal.batch(np.array([[1.0, -1, 0, 2]])), [4.0])

    def test_two_well_shape(self):
        cal = calibration("two-well-1d")
        assert cal.fn(np.array([1.0])) == 0.0
        assert cal.fn(np.array([-1.0])) == pytest.approx(0.05)
        # crossover between the wells sits at -0.025
        assert cal.fn(np.array([-0.025])) == pytest.approx(1.025)

    def test_lsc_step_values(self):
        cal = calibration("lsc-step-1d")
        assert cal.fn(np.array([-0.5])) == 1.0
        assert cal.fn(np.array([0.0])) == 0.0
        assert cal.gaussian_smoothed(np.array([0.0]), 0.3) == pytest.approx(0.5)

    def test_lsc_step_smoothed_matches_closed_form(self):
        # Monte-Carlo Gaussian smoothing of the step reproduces Phi(-x/h)
        cal = calibration("lsc-step-1d")
        rng = np.random.default_rng(4)
        for h in (0.5, 0.1):
            for x in (-2 * h, -h, 0.0, h, 2 * h):
                sv = smoothed_value(cal.batch, np.array([x]), Kernel.gaussian(h),
                                    20_000, rng)
                expected = normal_cdf(-x / h)
                se = max(sv.std_error, 1e-4)  # exact-zero SE at far probes
                assert abs(sv.value - expected) <= 4 * se

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            calibration("rosenbrock")


class TestRegistry:
    def test_polygon_instance(self):
        p = make_problem("polygon", n=3)
        assert p.dimension == 4
        assert p.ideal_value == pytest.approx(SQRT3_4)
        v = np.array([1.0, 1.0, math.pi / 3, math.pi / 3])
        assert p.report(p.objective(v)) == pytest.approx(SQRT3_4, abs=1e-12)
        x0 = p.sample_start(np.random.default_rng(0))
        assert x0.shape == (4,)
        assert p.domain.contains(x0)

    def test_polygon_needs_n(self):
        with pytest.raises(ValueError):
            make_problem("polygon")

    def test_calibration_instances(self):
        p = make_problem("l1-norm", n=2)
        assert p.dimension == 2
        assert p.objective(np.array([0.5, -0.5])) == pytest.approx(1.0)
        assert p.report(1.0) == 1.0

    def test_names(self):
        names = problem_names()
        assert "polygon" in names and "two-well-1d" in names


# The one-point forms as written before each became the one-row call of its batch form.
REFERENCE_FN = {
    "l1-norm": lambda x: float(np.abs(np.asarray(x, dtype=float)).sum()),
    "max-coordinate": lambda x: float(np.max(np.asarray(x, dtype=float))),
    "two-well-1d": lambda x: min(0.05 + abs(float(x[0]) + 1.0), abs(float(x[0]) - 1.0)),
    "lsc-step-1d": lambda x: 0.0 if float(x[0]) >= 0.0 else 1.0,
}


def reference_objective(name, n):
    if name == "polygon":
        poly = PolygonProblem(n)
        return lambda v: -float(poly.penalized_batch(poly.embed(v))[0])
    return REFERENCE_FN[name]


def one_row_points(dimension, seed, scale):
    """Points inside and far outside a domain, with exact 0.0, -0.0 and +-1.0 entries."""
    rng = np.random.default_rng(seed)
    V = rng.uniform(-scale, scale, size=(12, dimension))
    mask = rng.random(V.shape) < 0.3
    V[mask] = rng.choice([0.0, -0.0, 1.0, -1.0], size=V.shape)[mask]
    return V


def bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(problem_names()), n=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([0.5, 1.0, 3.0, 1e3]))
def test_objective_is_the_one_row_call_of_objective_batch(name, n, seed, scale):
    n = max(n, 3) if name == "polygon" else n
    p = make_problem(name, n=n)
    reference = reference_objective(name, n)
    for v in one_row_points(p.dimension, seed, scale):
        assert bits(p.objective(v)) == bits(p.objective_batch(v[None])[0])
        assert bits(p.objective(v)) == bits(reference(v))
        if name != "polygon":
            assert bits(calibration(name, n).fn(v)) == bits(reference(v))


CONSTRAINTS = {
    "box": {"type": "box", "lower": [0.0, -0.5], "upper": [1.0, 0.5]},
    "ball": {"type": "ball", "center": [1.0, 1.0], "radius": 1.0},
}
ANCHORS = {"box": [0.5, 0.0], "ball": [1.0, 1.0]}


@settings(max_examples=40, deadline=None)
@given(ctype=st.sampled_from(sorted(CONSTRAINTS)), kind=st.sampled_from(["distance",
                                                                        "ray-retraction"]),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([0.5, 2.0, 1e3]))
def test_penalized_objective_is_the_one_row_call_of_objective_batch(ctype, kind, seed, scale):
    penalty = {"kind": kind, "M": 7.0}
    if kind == "ray-retraction":
        penalty["anchor"] = ANCHORS[ctype]
    p = build_problem(parse_config({
        "problem": {"name": "l1-norm", "n": 2}, "seeds": [1], "budget": 100, "iterations": 1,
        "plan": {"stages": 1, "step": {"kind": "constant", "rho": 0.1}},
        "constraint": dict(CONSTRAINTS[ctype], penalty=penalty)}))
    for v in one_row_points(2, seed, scale):
        assert bits(p.objective(v)) == bits(p.objective_batch(v[None])[0])


class TestParameters:
    def test_unknown_parameters_rejected(self):
        with pytest.raises(ValueError, match="no parameter 'p1'"):
            make_problem("l1-norm", n=2, p1=3)
        with pytest.raises(ValueError, match="no parameter 'p4'"):
            make_problem("polygon", n=3, p4=1)

    def test_polygon_takes_its_penalty_coefficients(self):
        assert make_problem("polygon", n=3, p1=2.0, p3=5.0).dimension == 4

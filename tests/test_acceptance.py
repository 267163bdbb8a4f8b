"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities (run pytest with -s to watch).

Budgets and thresholds are frozen; every stochastic experiment runs under a
fixed master seed, so results are reproducible bit for bit.  The polygon n=20
benchmark carries the ``slow`` marker and is excluded from the default run
(``pytest -m slow`` executes it).
"""
import subprocess
import sys
import time

import numpy as np
import pytest

import smoothopt as so
from smoothopt.harness.validate import (
    exactness_checks,
    gradient_suite,
    lipschitz_checks,
    moments_suite,
    rate_suite,
)
from smoothopt.smoothing import Kernel, second_moment_check, smoothed_value


def report(criterion: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def run_polygon_benchmark(n, seeds, iterations, batch_size=2, stages=11,
                          decay=0.5, alpha=0.5, beta=0.5):
    """Frozen benchmark configuration (calibrated once, then pinned)."""
    poly = so.PolygonProblem(n)
    X = poly.projection_set()
    lower, upper = X.bounding_box()
    h0 = 0.5 * float(np.linalg.norm(upper - lower))
    lip_rng = np.random.default_rng(np.random.SeedSequence((seeds[0], 0x11F5)))
    L = so.estimate_lipschitz(poly.objective_batch, X, h0, lip_rng)
    widths = so.geometric_widths(h0, stages, decay)
    steps = tuple(so.StepRule.constant(alpha * h / L) for h in widths)
    plan = so.SmoothingPlan(widths=widths, steps=steps, iterations=iterations,
                            batch_size=batch_size, ravine_beta=beta)
    areas, evaluations = [], []
    for seed in seeds:
        start_ss, opt_ss = np.random.SeedSequence(seed).spawn(2)
        x0 = poly.sample_start(np.random.default_rng(start_ss))
        result = so.successive_smoothing(poly.objective_batch, X, plan, "sphere",
                                         x0, np.random.default_rng(opt_ss))
        areas.append(-result.best_value)
        evaluations.append(result.evaluations)
    return areas, evaluations


class TestPolygonBenchmarks:
    def test_criterion_1_polygon_n3(self):
        t0 = time.perf_counter()
        areas, evals = run_polygon_benchmark(3, seeds=range(10), iterations=300)
        elapsed = time.perf_counter() - t0
        hits = sum(a >= 0.42 for a in areas)
        ok = hits >= 8 and max(evals) <= 100_000 and elapsed < 30.0
        report("1 (polygon n=3)", ok,
               f"{hits}/10 seeds reached area >= 0.42 (best {max(areas):.4f}, "
               f"ideal 0.4330), {max(evals)} evaluations/seed <= 100000, "
               f"{elapsed:.1f}s < 30s")

    def test_criterion_2_polygon_n4(self):
        t0 = time.perf_counter()
        areas, evals = run_polygon_benchmark(4, seeds=range(10), iterations=600)
        elapsed = time.perf_counter() - t0
        hits = sum(a >= 0.48 for a in areas)
        ok = hits >= 8 and max(evals) <= 200_000 and elapsed < 60.0
        report("2 (polygon n=4)", ok,
               f"{hits}/10 seeds reached area >= 0.48 (best {max(areas):.4f}, "
               f"ideal 0.5), {max(evals)} evaluations/seed <= 200000, "
               f"{elapsed:.1f}s < 60s")

    @pytest.mark.slow
    def test_criterion_3_polygon_n20(self):
        t0 = time.perf_counter()
        areas, evals = run_polygon_benchmark(20, seeds=range(3), iterations=3400)
        elapsed = time.perf_counter() - t0
        hits = sum(a >= 0.74 for a in areas)
        ok = hits >= 1 and max(evals) <= 150_000 and elapsed < 600.0
        report("3 (polygon n=20)", ok,
               f"{hits}/3 seeds reached area >= 0.74 (areas "
               f"{[round(a, 4) for a in areas]}, paper 0.7680), "
               f"{max(evals)} evaluations/seed <= 150000, {elapsed:.1f}s < 600s")


class TestEstimatorCriteria:
    def test_criterion_4_unbiasedness(self):
        t0 = time.perf_counter()
        checks = gradient_suite()  # n in {1,2,3}, both kernels, h in {0.5, 0.1}
        elapsed = time.perf_counter() - t0
        worst = max(c.measured for c in checks)
        ok = all(c.passed for c in checks) and elapsed < 60.0
        report("4 (estimator unbiasedness)", ok,
               f"quadrature-oracle agreement within 4 combined SEs on all "
               f"{len(checks)} configurations (worst {worst:.2f} SEs), "
               f"{elapsed:.1f}s < 60s")

    def test_criterion_5_second_moment_sphere(self):
        t0 = time.perf_counter()
        checks = [c for c in moments_suite() if c.name.startswith("sphere")]
        elapsed = time.perf_counter() - t0
        ok = all(c.passed for c in checks) and elapsed < 30.0
        detail = "; ".join(f"{c.name}: {c.measured:.4f} vs {c.bound:.4f}"
                           for c in checks if "tight" not in c.name)
        report("5a (sphere second moment <= L^2/n, 5% slack)", ok,
               f"{detail}; {elapsed:.1f}s < 30s")

    @pytest.mark.xfail(
        strict=True,
        reason="the stated bound n*L^2 is below the attainable value: the "
               "single-sample second moment of the Gaussian two-point "
               "estimator on a linear objective with |grad| = L is exactly "
               "(n+2)*L^2, so no Lipschitz test function with a tight "
               "gradient bound can satisfy mean <= n*L^2",
    )
    def test_criterion_5_second_moment_gaussian_as_stated(self):
        rng = np.random.default_rng(20240806)
        n, L, h = 4, 2.0, 0.05
        c = rng.standard_normal(n)
        c *= L / np.linalg.norm(c)
        m = second_moment_check(lambda X: np.asarray(X) @ c, np.zeros(n),
                                Kernel.gaussian(h), 200_000, rng)
        report("5b (gaussian second moment <= n*L^2, as stated)",
               m <= n * L ** 2,
               f"measured {m:.4f} vs stated bound {n * L ** 2:.4f} "
               f"(exact value here is (n+2)*L^2 = {(n + 2) * L ** 2:.4f})")

    def test_criterion_5_second_moment_gaussian_attainable(self):
        t0 = time.perf_counter()
        checks = [c for c in moments_suite() if c.name.startswith("gaussian")]
        elapsed = time.perf_counter() - t0
        ok = all(c.passed for c in checks) and elapsed < 30.0
        detail = "; ".join(f"{c.name}: {c.measured:.4f} vs (n+4)L^2 = {c.bound:.4f}"
                           for c in checks)
        report("5c (gaussian second moment within (n+4)*L^2)", ok,
               f"{detail}; {elapsed:.1f}s < 30s")

    def test_criterion_6_empirical_rate(self):
        t0 = time.perf_counter()
        checks = rate_suite()  # l1 on the unit ball, n=10, K=8, 20 seeds
        elapsed = time.perf_counter() - t0
        ok = all(c.passed for c in checks) and elapsed < 300.0
        detail = "; ".join(f"t={c.name.split('=')[1]}: median gap {c.measured:.4f} "
                           f"<= bound {c.bound:.4f}" for c in checks)
        report("6 (decaying-step rate)", ok, f"{detail}; {elapsed:.1f}s < 300s")


class TestPenaltyCriteria:
    def test_criterion_7_exactness_grids(self):
        t0 = time.perf_counter()
        checks = exactness_checks()  # 3 problems x M in {0.1, 1, 10}, 400x400
        elapsed = time.perf_counter() - t0
        worst = max(c.measured for c in checks)
        ok = all(c.passed for c in checks) and elapsed < 10.0
        report("7 (penalty exactness)", ok,
               f"grid minima exact within {worst:.2f} of one cell's value error on all "
               f"{len(checks)} problem/multiplier pairs, {elapsed:.1f}s < 10s")

    def test_criterion_8_lipschitz_propagation(self):
        t0 = time.perf_counter()
        checks = lipschitz_checks()  # 10^4 random quotients
        elapsed = time.perf_counter() - t0
        ok = all(c.passed for c in checks) and elapsed < 5.0
        c = checks[0]
        report("8 (Lipschitz propagation)", ok,
               f"max quotient {c.measured:.4f} <= L + 2M + 1e-9 = {c.bound:.4f}, "
               f"{elapsed:.1f}s < 5s")


class TestSmoothingCriteria:
    def test_criterion_9_discontinuous_smoothing(self):
        t0 = time.perf_counter()
        cal = so.calibration("lsc-step-1d")
        rng = np.random.default_rng(20240807)
        worst = 0.0
        for h in (0.5, 0.1):
            for x in (-2 * h, -h, 0.0, h, 2 * h):
                value, se = smoothed_value(cal.batch, np.array([x]), Kernel.gaussian(h),
                                           20_000, rng)
                expected = cal.gaussian_smoothed(x, h)
                z = abs(value - expected) / max(se, 1e-9)
                worst = max(worst, z)
        elapsed = time.perf_counter() - t0
        ok = worst <= 4.0 and elapsed < 5.0
        report("9 (discontinuous smoothing)", ok,
               f"Gaussian-smoothed step matches the normal CDF within "
               f"{worst:.2f} <= 4 SEs at 10 probes, {elapsed:.1f}s < 5s")


class TestGlobalProperty:
    def test_criterion_10_two_well_regression(self):
        # frozen after calibration: master seed 303 draws 8 of 20 starts in
        # the global basin, so basin-captured local descent cannot beat 10/20
        t0 = time.perf_counter()
        cal = so.calibration("two-well-1d")
        X, f = cal.domain, cal.batch
        stages, h0, T, alpha = 10, 2.0, 300, 0.05
        widths = so.geometric_widths(h0, stages, 0.5)
        steps = tuple(so.StepRule.constant(alpha * h) for h in widths)
        plan = so.SmoothingPlan(widths=widths, steps=steps, iterations=T,
                                batch_size=1, ravine_beta=1.0)
        successive_hits = single_hits = 0
        for ss in np.random.SeedSequence(303).spawn(20):
            rng = np.random.default_rng(ss)
            x0 = np.array([rng.uniform(-3.0, 3.0)])
            multi = so.successive_smoothing(f, X, plan, "sphere", x0, rng)
            successive_hits += abs(multi.best_point[0] - 1.0) <= 0.1
            # same start, same total budget, smallest width only
            single = so.sgd_run(f, X, x0, np.full(stages * T, alpha * h0), widths[-1],
                                "sphere", 1, rng)
            single_hits += abs(single.best_point[0] - 1.0) <= 0.1
        elapsed = time.perf_counter() - t0
        ok = successive_hits >= 18 and single_hits <= 10 and elapsed < 60.0
        report("10 (two-well global property)", ok,
               f"successive smoothing reached the global well in "
               f"{successive_hits}/20 seeds (>= 18), single-stage local "
               f"descent in {single_hits}/20 (<= 10), {elapsed:.1f}s < 60s")


class TestDeterminism:
    def test_criterion_11_csv_bit_reproducibility(self, tmp_path):
        common = ["kernel: sphere", "budget: 6000", "iterations: 60", "batch_size: 2"]
        problems = {
            "polygon": ["problem: {name: polygon, n: 3}"],
            "ray-retraction": [
                "problem: {name: l1-norm, n: 4}",
                "constraint: {type: ball, center: [1, 1, 1, 1], radius: 1.0,",
                "             penalty: {kind: ray-retraction, M: 10.0, anchor: [1, 1, 1, 1]}}",
            ],
        }
        # re-runs: a step that scales with the estimated Lipschitz constant
        scaled = "plan: {stages: 6, beta: 0.5, step: {kind: constant-scaled, alpha: 0.5}}"
        # seed layouts: a step that does not use the Lipschitz estimate, which
        # is seeded from the first seed of the list
        constant = "plan: {stages: 6, beta: 0.5, step: {kind: constant, rho: 0.02}}"

        def run(name, plan, seeds, tag):
            """Summary CSV of one CLI run (a fresh interpreter) of the config."""
            path = tmp_path / f"{name}-{tag}.yaml"
            out = tmp_path / f"{name}-{tag}"
            path.write_text("\n".join(problems[name] + common + [
                plan, f"seeds: {seeds}", f"output: {out}"]), encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, "-m", "smoothopt.harness.cli", "run", str(path)],
                capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            return (out / "results.csv").read_bytes()

        checks = []
        for name in problems:
            first = run(name, scaled, "{master: 7, count: 4}", "first")
            checks.append(run(name, scaled, "{master: 7, count: 4}", "again") == first)
            together = run(name, constant, [7, 8], "together").split(b"\r\n")[1:3]
            apart = [run(name, constant, [seed], seed).split(b"\r\n")[1] for seed in (7, 8)]
            checks.append(together == apart)
        report("11 (bit-exact reproducibility)", all(checks),
               f"summary CSV identical across re-runs, and seed rows identical with "
               f"seeds 7 and 8 run together and apart, on a polygon and a "
               f"ray-retraction config ({len(first)} bytes)")

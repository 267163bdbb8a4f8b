"""Fast self-test of the benchmark (about half a minute on 2 cores).

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that
each run exits 0 with a correct result and no failed operation, and that it
prints exactly the metrics ``BENCHMARK.json`` names, each with its unit.  It
also checks that ``run.py`` fails, without a result, in a directory that
holds only ``BENCHMARK.json`` and the benchmark's files.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(stdout: str, expected: dict) -> list[str]:
    result = json.loads(stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        value, unit = m.get("value"), m.get("unit")
        print(f"    {name} = {value!r} {unit}")
        if unit != expected.get(name):
            errors.append(f"{name}: unit {unit!r}, BENCHMARK.json says {expected.get(name)!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.py")
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for name in WORKLOADS:
        for trace, expected in modes.items():
            print(f"{name} --trace {trace}")
            proc = run(["--workload", name, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny"], ROOT)
            if proc.returncode != 0:
                errors.append(f"{name} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            errors += [f"{name} trace {trace}: {e}" for e in check_result(proc.stdout, expected)]

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(["--workload", "polygon-n4", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"without the library: exit {proc.returncode}, {proc.stderr.strip()}")
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("run.py did not fail without the library source")

    for e in errors:
        print("FAIL", e)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())

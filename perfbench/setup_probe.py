"""Time one set-up of a workload in a fresh interpreter and print it as JSON.

    python3 perfbench/setup_probe.py <workload> <input index> <size>

Set-up is everything before the first SGD iteration: importing the library,
parsing the config, ``build_problem`` and ``resolve_plan`` (which includes
the Lipschitz estimate).  For the validation suite it is the import of
``harness.validate``; the suite builds nothing else before its first draw.
"""
import json
import sys
import time

from workloads import ROOT, WORKLOADS, use_checkout_source


def main(argv) -> int:
    name, index, size = argv[0], int(argv[1]), argv[2]
    wl = WORKLOADS[name]
    use_checkout_source()
    t0 = time.perf_counter()
    if wl.kind == "run":
        from smoothopt.harness import config, runner
        t1 = time.perf_counter()
        cfg = config.parse_config(wl.config(index, size, str(ROOT / ".perfbench" / "probe")))
        t2 = time.perf_counter()
        runner.resolve_plan(cfg, runner.build_problem(cfg))
    else:
        from smoothopt.harness import validate  # noqa: F401
        t1 = t2 = time.perf_counter()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "build_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

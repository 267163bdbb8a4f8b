"""Record the reference outputs that every benchmark run is checked against.

Run from the root of a checkout of the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It runs every workload on every input set at the full size, and on input set
0 at the self-test's tiny size, and writes ``perfbench/reference.json`` from
scratch.  It takes about 16 minutes on a 2-core machine.
"""
from __future__ import annotations

import argparse
import json
import shutil
import time

from workloads import (INPUT_SETS, REFERENCE, ROOT, SIZES, WORKLOADS, git_sha,
                       source_sha256, use_checkout_source)

RECORDED_SETS = {"full": INPUT_SETS, "tiny": 1}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    use_checkout_source()
    from smoothopt.harness import config, runner, validate

    store = {}
    workdir = ROOT / ".perfbench" / "reference"
    try:
        for name in sorted(WORKLOADS):
            wl = WORKLOADS[name]
            for size in SIZES:
                entries = []
                for index in range(RECORDED_SETS[size]):
                    if wl.kind == "run":
                        unit = wl.run_unit(index, size, workdir, None, config.parse_config,
                                           runner.execute_config, time.perf_counter)
                    else:
                        unit = wl.run_unit(index, size, workdir, None,
                                           validate.gradient_suite, time.perf_counter)
                    if unit.error is not None or unit.failed:
                        raise SystemExit(f"{name} {size} input {index}: {unit.error or 'failed'}")
                    entries.append(unit.output)
                    print(f"{name} {size} input {index}: {unit.seconds:.2f} s, "
                          f"{unit.hits}/{unit.operations} on target", flush=True)
                store.setdefault(name, {})[size] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {"commit": git_sha(), "source_sha256": source_sha256(),
                 "input_sets": INPUT_SETS, "workloads": store}
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

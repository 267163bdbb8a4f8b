"""Record the golden digests that ``test_golden.py`` compares against.

    PYTHONPATH=src python tests/record_golden.py

Runs every case of the golden matrix, the ``bench polygon`` CSVs (n = 3,
4 and 20) and the ``validate`` suites in a temporary directory and writes
``tests/golden_digests.json``.
Run it only on a commit whose outputs are the reference; a refactor that
must keep every output bit for bit leaves the file as it is.
"""
import json
import os
import tempfile
from pathlib import Path

import test_golden as golden


def main() -> None:
    digests = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in sorted(golden.CASES):
                digests[name] = golden.case_digests(name)
            for name, n in sorted({**golden.BENCH, **golden.SLOW_BENCH}.items()):
                digests[name] = golden.bench_digests(n, Path(tmp) / name)
            for name in sorted(golden.VALIDATE):
                digests[name] = golden.validate_digests(name)
        finally:
            os.chdir(cwd)
    golden.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {len(digests)} entries to {golden.DIGESTS}")


if __name__ == "__main__":
    main()

"""Record perfbench/reference.json from the current checkout.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs each operation of every workload once at the default seed and full
size, and stores the digest of its outputs.  Re-record only when a change
is meant to alter the program's answers, and say so where the change is
described.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import worker
import workloads as wl


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def main() -> int:
    os.chdir(worker.ROOT)
    cli, _ = worker.import_cli(None)
    reference: dict[str, dict[str, dict]] = {}
    for workload in wl.WORKLOADS:
        entry = reference.setdefault(workload, {})
        for op in wl.ops(workload, wl.DEFAULT_SEED):
            wl.prepare(op)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = worker.call_main(cli.main, op.argv, None)
            digest, problems = wl.check(op, buf.getvalue())
            if code != 0 or problems:
                print(f"{' '.join(op.argv)}: exit {code} {problems}", file=sys.stderr)
                return 1
            entry[op.kind] = {key: _rounded(value) for key, value in digest.items()}
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

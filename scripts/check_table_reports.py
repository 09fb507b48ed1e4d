#!/usr/bin/env python3
"""Check that the committed Tables 1-2 reports match a fresh run.

    python3 scripts/check_table_reports.py target/release

Runs the `table1` and `table2` binaries of the given directory in a
temporary directory, and compares each report with the committed
`table1_report.json` / `table2_report.json` at the repository root.

Before comparing, both sides lose `run_meta`, `telemetry` and every key
ending in `_micros`: they record the machine and the clock, not the
result. Any other difference (a fitted class, an `evidence` string, a
series point, `consistent`, a solver count) is printed with its path,
and the exit status is 1.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORTS = (("table1", "table1_report.json"), ("table2", "table2_report.json"))
DROPPED = ("run_meta", "telemetry")


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items()
                if k not in DROPPED and not k.endswith("_micros")}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def differences(committed, fresh, path="$"):
    if type(committed) is not type(fresh):
        yield f"{path}: {committed!r} != {fresh!r}"
    elif isinstance(committed, dict):
        for key in sorted(set(committed) | set(fresh)):
            if key not in fresh:
                yield f"{path}.{key}: missing from the fresh report"
            elif key not in committed:
                yield f"{path}.{key}: missing from the committed report"
            else:
                yield from differences(committed[key], fresh[key], f"{path}.{key}")
    elif isinstance(committed, list):
        if len(committed) != len(fresh):
            yield f"{path}: {len(committed)} entries != {len(fresh)}"
        for i, (c, f) in enumerate(zip(committed, fresh)):
            yield from differences(c, f, f"{path}[{i}]")
    elif committed != fresh:
        yield f"{path}: {committed!r} != {fresh!r}"


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    bin_dir = os.path.abspath(sys.argv[1])
    failed = False
    with tempfile.TemporaryDirectory() as fresh_dir:
        for binary, report in REPORTS:
            subprocess.run([os.path.join(bin_dir, binary)], cwd=fresh_dir,
                           check=True, stdout=subprocess.DEVNULL)
            with open(os.path.join(ROOT, report)) as f:
                committed = strip(json.load(f))
            with open(os.path.join(fresh_dir, report)) as f:
                fresh = strip(json.load(f))
            diffs = list(differences(committed, fresh))
            for d in diffs:
                print(f"{report}: {d}")
            print(f"{report}: {'differs from' if diffs else 'matches'} the fresh run")
            failed |= bool(diffs)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

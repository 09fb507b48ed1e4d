#!/usr/bin/env python3
"""Count the non-test lines of Rust code in each crate directory.

A line counts when it is not blank, is not a `//` comment (doc comments
included), and comes before its file's first `#[cfg(test)]`. Every
`.rs` file under a directory is counted, recursively.

    python3 scripts/loc.py                      # every crate's src, src/, vendor/*
    python3 scripts/loc.py crates/revision/src crates/server/src

Prints one line per directory and their total. Uses only the Python
standard library and needs no build.
"""

import pathlib
import sys


def file_lines(path):
    count = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if stripped == "#[cfg(test)]":
            break
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


def dir_lines(directory):
    return sum(file_lines(p) for p in sorted(directory.rglob("*.rs")))


def default_dirs(root):
    dirs = sorted(p for p in (root / "crates").glob("*/src") if p.is_dir())
    dirs.append(root / "src")
    dirs.extend(sorted(p for p in (root / "vendor").glob("*") if p.is_dir()))
    return [d.relative_to(root) for d in dirs if d.is_dir()]


def main(argv):
    root = pathlib.Path(__file__).resolve().parent.parent
    dirs = [pathlib.Path(a) for a in argv] or default_dirs(root)
    total = 0
    for d in dirs:
        full = d if d.is_absolute() else root / d
        if not full.is_dir():
            print(f"loc.py: not a directory: {d}", file=sys.stderr)
            return 2
        n = dir_lines(full)
        total += n
        print(f"{n:>7}  {d}")
    print(f"{total:>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

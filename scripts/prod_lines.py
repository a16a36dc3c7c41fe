#!/usr/bin/env python3
"""Counts production lines of Rust source: every `.rs` file under
`crates/*/src` and `src`, cut at its first `#[cfg(test)]` that is
followed (after further attributes or blank lines) by a `mod` item.

A `#[cfg(test)]` on a helper function, field or `impl` in the middle of
a file does not end the file's production code; only the test module
does. Files without a test module count whole.

Usage: python3 scripts/prod_lines.py [ROOT] [--files]

ROOT is a checkout (default: the repository this script sits in).
Prints the total, and with `--files` each file's count first. Compare
two trees by running it on a checkout of each.
"""

import re
import sys
from pathlib import Path

TEST_MOD = re.compile(r"\s*(pub(\([^)]*\))?\s+)?mod\s")


def production_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.strip() != "#[cfg(test)]":
            continue
        j = i + 1
        while j < len(lines) and (lines[j].strip() == "" or lines[j].lstrip().startswith("#[")):
            j += 1
        if j < len(lines) and TEST_MOD.match(lines[j]):
            return i
    return len(lines)


def main(argv):
    show_files = "--files" in argv
    args = [a for a in argv if a != "--files"]
    if len(args) > 1 or any(a.startswith("-") for a in args):
        sys.exit(__doc__.strip())
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    files = sorted(root.glob("crates/*/src/**/*.rs")) + sorted(root.glob("src/**/*.rs"))
    total = 0
    for path in files:
        count = production_lines(path)
        total += count
        if show_files:
            print(f"{count:6} {path.relative_to(root)}")
    print(f"{total:6} total ({len(files)} files)")


if __name__ == "__main__":
    main(sys.argv[1:])

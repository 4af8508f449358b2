#!/usr/bin/env python3
"""Line counts of src/, its modules, bench/ and tests/, as a Markdown table.

A directory's count is what

    find <dir> -name '*.cpp' -o -name '*.h' | xargs cat | wc -l

prints: the newlines in every C++ source and header below it.  Reports
only; nothing is gated on the numbers.

    python3 tools/loc.py [--root DIR]
"""
import argparse
import os
import sys


def count(directory):
    files = lines = 0
    for base, _, names in os.walk(directory):
        for name in names:
            if name.endswith((".cpp", ".h")):
                with open(os.path.join(base, name), "rb") as f:
                    lines += f.read().count(b"\n")
                files += 1
    return files, lines


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repository root")
    args = ap.parse_args(argv)
    src = os.path.join(args.root, "src")
    if not os.path.isdir(src):
        print("loc.py: no src/ under %s" % args.root, file=sys.stderr)
        return 2
    rows = [("src/",) + count(src)]
    for module in sorted(os.listdir(src)):
        if os.path.isdir(os.path.join(src, module)):
            rows.append(("src/%s/" % module,) + count(os.path.join(src, module)))
    for other in ("bench", "tests"):
        if os.path.isdir(os.path.join(args.root, other)):
            rows.append(("%s/" % other,) + count(os.path.join(args.root, other)))
    print("| directory | files | lines |")
    print("|---|---:|---:|")
    for name, files, lines in rows:
        print("| %s | %d | %d |" % (name, files, lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

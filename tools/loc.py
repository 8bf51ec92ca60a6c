"""Count the non-blank lines of every ``src/srlnc`` module.

Prints one line per module and one for ``src/`` in total, for the working
tree::

    python tools/loc.py

or, given a git revision, as ``rev -> tree`` beside the working tree::

    python tools/loc.py HEAD~1

A module present on one side only reads ``-`` on the other.
"""

from __future__ import annotations

import argparse
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/srlnc"


def _non_blank(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())


def _tree_counts() -> dict[str, int]:
    folder = os.path.join(ROOT, PACKAGE)
    counts = {}
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                counts[name[:-3]] = _non_blank(fh.read())
    return counts


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def _rev_counts(rev: str) -> dict[str, int]:
    counts = {}
    for path in _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split():
        if path.endswith(".py"):
            counts[path[:-3]] = _non_blank(_git("show", f"{rev}:{PACKAGE}/{path}"))
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare with")
    args = parser.parse_args(argv)
    tree = _tree_counts()
    if args.rev is None:
        for name, n in tree.items():
            print(f"{name} {n}")
        print(f"src/ {sum(tree.values())}")
        return 0
    old = _rev_counts(args.rev)
    for name in sorted(old.keys() | tree.keys()):
        print(f"{name} {old.get(name, '-')} -> {tree.get(name, '-')}")
    print(f"src/ {sum(old.values())} -> {sum(tree.values())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

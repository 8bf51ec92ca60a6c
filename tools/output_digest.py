"""Digest every output the benchmark and a set of edge calls produce.

Runs each op of the benchmark's workloads (``bench/workloads.py``) at seed
1, a fixed list of extra ``srlnc`` calls and the six demos, and prints one
sha256 per call and one per group, over the call's stdout, stderr and exit
code.  The ops and extras run in-process through ``srlnc.cli.main``, with a
WARNING handler on the ``srlnc`` logger and numpy's warnings shown every
time, without the file paths they would print; a ``--dump-matrix`` file is
hashed with its call.  The demos run as subprocesses and only their stdout
is hashed.

Two checkouts print the same lines exactly when every one of these outputs
is byte for byte the same.  To compare them, write the digest in one::

    python tools/output_digest.py > digest.txt

and check the other against it::

    python tools/output_digest.py --check digest.txt

``--check`` prints nothing else: for every line that differs from the file
it prints the old line (``-``) and the new one (``+``), and it exits 1 if
any line differs, 0 otherwise.

It reads ``bench/`` and ``src/`` beside this directory and writes only to a
temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import logging
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1

# Edge calls outside the workloads: overflowing rank tables, the enumeration
# column, a chain at extreme p in both transition modes, an infeasible, an
# overflowing and a non-monotone solve, two small sweeps, a matrix dump, a
# simulation of three trial blocks on a pool of two workers and a q=16 table.
_POINT = ["--K", "20", "--q", "2", "--Nhat", "40",
          "--eps-b", "0.05", "--eps-e", "0.2", "--eps-k", "1.0"]
EXTRAS = {
    "rank-p0.99": ["rank", "--K", "20", "--q", "2", "--p", "0.99", "--Nhat", "40"],
    "rank-p0.9999": ["rank", "--K", "20", "--q", "2", "--p", "0.9999",
                     "--Nhat", "40"],
    "rank-oracle": ["rank", "--K", "4", "--q", "2", "--p", "0.7", "--with-oracle"],
    "chain-p0.99": ["chain", *_POINT, "--p", "0.99"],
    "chain-p0.99-consistent": ["chain", *_POINT, "--p", "0.99",
                               "--mode", "consistent"],
    "optimize-infeasible": ["optimize", *_POINT[:4], "--Nhat", "21",
                            *_POINT[6:]],
    "optimize-overflow": ["optimize", "--K", "40", "--q", "2", "--Nhat", "120",
                          "--eps-b", "0.0", "--eps-e", "0.0", "--p-max", "0.99"],
    "optimize-audit-failure": ["optimize", *_POINT[:4], "--Nhat", "60",
                               *_POINT[6:], "--p-max", "0.999"],
    "sweep-2a": ["sweep", "--figure", "2a", "--K", "4", "--q", "2",
                 "--eps-k", "1.0", "--trials", "20"],
    "sweep-1a": ["sweep", "--figure", "1a", "--K", "4", "--trials", "20"],
    "chain-dump-matrix": ["chain", "--K", "3", "--q", "2", "--p", "0.6",
                          "--Nhat", "8", "--eps-b", "0.1", "--eps-e", "0.3",
                          "--eps-k", "0.5", "--dump-matrix", "matrix.csv"],
    "simulate-pool": ["simulate", *_POINT, "--p", "0.7", "--trials", "4097",
                      "--threads", "2"],
    "rank-q16": ["rank", "--K", "20", "--q", "16", "--p", "0.3", "--Nhat", "100"],
}


def _digest(*parts: bytes | str | int) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def _show(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def run_call(main, argv: list[str]) -> str:
    """Digest of one in-process call, run in an empty working directory."""
    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setLevel(logging.WARNING)
    logger = logging.getLogger("srlnc")
    logger.addHandler(handler)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = _show
                code = main(argv)
            files = [(f.name, f.read_bytes()) for f in sorted(Path().iterdir())]
        finally:
            os.chdir(cwd)
            logger.removeHandler(handler)
    return _digest(out.getvalue(), err.getvalue(), code,
                   *[part for item in files for part in item])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE", help="compare with a "
                        "digest written earlier instead of printing this one")
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    from srlnc import cli
    import workloads

    lines: list[str] = []

    def group(name: str, digests: list[tuple[str, str]]) -> None:
        new = [f"{d}  {name}  {label}" for label, d in digests]
        new.append(f"{_digest(*[d for _, d in digests])}  {name}  "
                   f"({len(digests)} calls)")
        lines.extend(new)
        if not args.check:
            print("\n".join(new), flush=True)

    for name, make in workloads.WORKLOADS.items():
        group(name, [(" ".join(op.argv), run_call(cli.main, list(op.argv)))
                     for op in make(SEED)])
    group("extras", [(label, run_call(cli.main, argv))
                     for label, argv in EXTRAS.items()])
    demos = sorted(f for f in os.listdir(os.path.join(ROOT, "demos"))
                   if f.endswith(".py"))
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    group("demos", [(demo, _digest(subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        capture_output=True, env=env, check=False).stdout)) for demo in demos])
    if not args.check:
        return 0
    with open(args.check) as fh:
        old = fh.read().splitlines()
    diff = [line for line in difflib.unified_diff(old, lines, n=0, lineterm="")
            if line[:1] in "-+" and line[:3] not in ("---", "+++")]
    print("\n".join(diff), end="\n" if diff else "")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

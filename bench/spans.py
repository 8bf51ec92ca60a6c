"""Spans recorded around srlnc's layer boundaries from outside the package.

The tracer replaces a public function by a timing wrapper in the namespace
where its callers look it up (``srlnc.cli.build_chain``, the
``RankTables.full_rank_prob`` method, ...) and restores the originals when
the traced block ends.  No file under ``src/`` knows about it.

Each span is (name, op, start, end, parent): the op index of the CLI call
that caused it and the index of the enclosing span (-1 for the root).  Spans
live in flat arrays until the run writes them out.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  An attribute whose value is a class is
# wrapped as a constructor call; "RankTables.full_rank_prob" wraps a method
# on the class, where instances look it up.
PATCH_POINTS = (
    ("srlnc.cli", "main", "cli.main"),
    ("srlnc.cli", "estimate", "sim.estimate"),
    ("srlnc.sim", "sample_coding_matrix", "coding.sample_matrix"),
    ("srlnc.cli", "RankTables", "rank.tables"),
    ("srlnc.optimize", "RankTables", "rank.tables"),
    ("srlnc.rank", "RankTables.full_rank_prob", "rank.full_rank"),
    ("srlnc.cli", "build_chain", "chain.build"),
    ("srlnc.optimize", "build_chain", "chain.build"),
    ("srlnc.chain", "_propagate", "chain.propagate"),
    ("srlnc.cli", "intercept_probability", "chain.intercept"),
    ("srlnc.optimize", "intercept_probability", "chain.intercept"),
    ("srlnc.cli", "chain_delivery_probability", "chain.chain_delivery"),
    ("srlnc.cli", "delivery_probability", "chain.delivery"),
    ("srlnc.optimize", "delivery_probability", "chain.delivery"),
    ("srlnc.cli", "solve_im", "optimize.solve"),
)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.op.append(self.current_op)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install a wrapper at every patch point; restore on exit."""
        saved = []
        try:
            for module, attr, name in PATCH_POINTS:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.wrap(name, saved[-1][2]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def durations(self, ops: range) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, total self seconds) over spans whose
        op index lies in ``ops``.  Self time is a span's duration minus the
        durations of its direct children."""
        child = [0.0] * len(self)
        for i in range(len(self)):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(len(self)):
            if self.op[i] in ops:
                agg = out[self.names[self.name[i]]]
                dur = self.end[i] - self.start[i]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: str) -> None:
        """Gzipped CSV, one span per line, times in microseconds from the
        first span."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,op,name,start_us,end_us,parent\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.op[i]},{self.names[self.name[i]]},"
                         f"{(self.start[i] - t0) * 1e6:.1f},"
                         f"{(self.end[i] - t0) * 1e6:.1f},{self.parent[i]}\n")

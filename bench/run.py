"""Benchmark of the ``srlnc`` command on workloads cut from the paper's figures.

Run from the repository root:

    python3 bench/run.py --workload chain-fig1 --seed 1 --seconds 25 --trace 0

One closed-loop serial caller drives ``srlnc.cli.main`` in-process, one op
(one CLI invocation) at a time, repeating the workload's op list in whole
rounds for about ``--seconds`` seconds.  Every op's output is then checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from a separate traced run
with ``--trace 1``.  Spans and results are also written under ``bench/out/``.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Child interpreters timed from launch to ready; setup_s is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# Repetitions of each layer micro-measurement in the traced run.
MICRO_REPEATS = 21


def setup(workload: str, seed: int):
    """Import the CLI from src/, build the field tables, make the op list."""
    sys.path.insert(0, SRC)
    from srlnc import cli, gf

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "srlnc"):
        raise SystemExit(f"bench: srlnc imported from {cli.__file__}, not {SRC}")
    import workloads

    ops = workloads.WORKLOADS[workload](seed)
    for q in sorted({op.q for op in ops}):
        gf.get_field(q)
    return cli, ops


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time from launching a fresh interpreter until it has set up."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                t1 = perf_counter()
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise SystemExit("bench: set-up child failed")
        samples.append(t1 - t0)
    return samples


def run_ops(cli, ops, first_index: int = 0, tracer=None):
    """Call the CLI once per op; return [(exit code, stdout)] and wall times."""
    results, times = [], []
    for i, op in enumerate(ops):
        argv = list(op.argv)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.current_op = first_index + i
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        times.append(perf_counter() - t0)
        results.append((rc, out.getvalue()))
    return results, times


def timed_rounds(cli, ops, seconds: float, tracer=None):
    """Whole rounds of the op list until another round would overrun.

    Returns each round's results, each round's op wall times and the wall
    time of the whole timed phase.
    """
    rounds, times = [], []
    start = perf_counter()
    while True:
        res, t = run_ops(cli, ops, len(rounds) * len(ops), tracer)
        rounds.append(res)
        times.append(t)
        elapsed = perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, times, elapsed


def op_p50_ms(times) -> float:
    """Median over the op list of each op's mean wall time across rounds."""
    return statistics.median(statistics.fmean(op) for op in zip(*times)) * 1e3


def check_op(op, rc: int, out: str, K: int) -> tuple[list[str], bool]:
    """Problems with one op's output, and whether it shows the kept fault."""
    import checks

    try:
        rec = checks.parse(out)
    except (ValueError, KeyError) as exc:
        return [f"unparsable output ({exc})"], False
    check = {"simulate": checks.check_simulate, "chain": checks.check_chain,
             "optimize": checks.check_optimize}[op.kind]
    return check(op, rc, rec, K)


def check_rounds(cli, ops, rounds) -> tuple[list[str], int]:
    """All problems found, and the number of failed ops per round."""
    import workloads

    first = rounds[0]
    problems = [f"round {k}: output differs from round 0"
                for k, res in enumerate(rounds[1:], 1) if res != first]
    rerun, _ = run_ops(cli, ops[:1])
    if rerun[0] != first[0]:
        problems.append("rerun of op 0 with the same seed differs")
    failed = 0
    for i, (op, (rc, out)) in enumerate(zip(ops, first)):
        bad, fault = check_op(op, rc, out, workloads.K)
        problems += [f"op {i} ({' '.join(op.argv)}): {b}" for b in bad]
        failed += fault
    return problems, failed


def end_to_end(workload: str, seed: int, seconds: float):
    setup_s = statistics.median(setup_seconds(workload, seed))
    cli, ops = setup(workload, seed)
    rounds, times, elapsed = timed_rounds(cli, ops, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(rounds) * len(ops) / elapsed, "1/s"),
        "op_p50_ms": (op_p50_ms(times), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    problems, failed = check_rounds(cli, ops, rounds)
    return metrics, problems, len(rounds), len(ops), failed


def _field_build_ms(qs) -> float:
    """Median time to build one field's tables, summed over the fields used."""
    from srlnc.gf import GF

    total = 0.0
    for q in qs:
        samples = []
        for _ in range(MICRO_REPEATS):
            t0 = perf_counter()
            GF(q)
            samples.append(perf_counter() - t0)
        total += statistics.median(samples)
    return total * 1e3


def _absorb_us(qs, seed: int) -> float:
    """Mean time of DecoderState.absorb on vectors drawn at each field size."""
    import numpy as np
    from srlnc.coding import CodeParams, DecoderState, sample_coding_matrix
    import workloads

    rng = np.random.default_rng(seed)
    K = workloads.K
    samples = []
    for q in qs:
        code = CodeParams(K=K, q=q, p=1.0 / q, n_hat=2 * K)
        for _ in range(MICRO_REPEATS):
            dec = DecoderState(K, q)
            for v in sample_coding_matrix(code, K + 10, rng):
                t0 = perf_counter()
                dec.absorb(v)
                samples.append(perf_counter() - t0)
    return statistics.fmean(samples) * 1e6


def _records(pairs, ops, kind: str):
    import checks

    return [(op, checks.parse(out)) for op, (_, out) in zip(ops, pairs)
            if op.kind == kind]


def per_layer(workload: str, seed: int, seconds: float):
    import workloads
    from spans import Tracer

    cli, ops = setup(workload, seed)
    probes = workloads.probe_ops(workload, seed)
    tracer = Tracer()
    with tracer.patched():
        rounds, times, elapsed = timed_rounds(cli, ops, seconds, tracer)
        n_ops = len(rounds) * len(ops)
        probe_res, _ = run_ops(cli, probes, n_ops, tracer)
    problems, failed = check_rounds(cli, ops, rounds)
    for op, (rc, out) in zip(probes, probe_res):
        bad, fault = check_op(op, rc, out, workloads.K)
        problems += [f"probe ({' '.join(op.argv)}): {b}" for b in bad]
        if fault:
            problems.append(f"probe ({' '.join(op.argv)}): intercept above 1")

    own = tracer.durations(range(n_ops))
    every = tracer.durations(range(n_ops + len(probes)))

    def per_call(name: str, scale: float, self_time: bool = False) -> float:
        calls, total, self_total = every.get(name, (0, 0.0, 0.0))
        return (self_total if self_time else total) / calls * scale if calls else 0.0

    def per_op(name: str) -> float:
        return own.get(name, (0, 0.0, 0.0))[0] / n_ops

    # Simulate and optimize records behind the per-trial and per-solve counts:
    # the workload's own first round, else the probes.
    all_ops, all_res = ops + probes, rounds[0] + probe_res
    sims = _records(all_res, all_ops, "simulate")
    sim_trials = sum(op.trials for op, _ in sims)
    sim_trials_traced = (sum(op.trials for op in ops if op.kind == "simulate")
                         * len(rounds)
                         + sum(op.trials for op in probes if op.kind == "simulate"))
    opts = _records(all_res, all_ops, "optimize")
    qs = sorted({op.q for op in ops})
    main_total = own["cli.main"][1]
    metrics = {
        "cli.self_ms": (own["cli.main"][2] / n_ops * 1e3, "ms/op"),
        "gf.field_build_ms": (_field_build_ms(qs), "ms"),
        "coding.sample_matrix_us": (per_call("coding.sample_matrix", 1e6), "us/call"),
        "coding.absorb_us": (_absorb_us(qs, seed), "us/call"),
        "sim.estimate_ms": (per_call("sim.estimate", 1e3), "ms/call"),
        "sim.self_ms": (per_call("sim.estimate", 1e3, True), "ms/call"),
        "sim.trials_per_s": (sim_trials_traced / every["sim.estimate"][1], "1/s"),
        "sim.slots_per_trial": (
            sum(float(r["mean_slots"]) * op.trials for op, r in sims) / sim_trials,
            "count"),
        "rank.tables_ms": (per_call("rank.tables", 1e3), "ms/call"),
        "rank.full_rank_us": (per_call("rank.full_rank", 1e6), "us/call"),
        "rank.tables_built": (per_op("rank.tables"), "count/op"),
        "rank.full_rank_calls": (per_op("rank.full_rank"), "count/op"),
        "chain.build_ms": (per_call("chain.build", 1e3), "ms/call"),
        "chain.propagate_ms": (per_call("chain.propagate", 1e3), "ms/call"),
        "chain.propagations": (per_op("chain.propagate"), "count/op"),
        "chain.delivery_self_ms": (per_call("chain.delivery", 1e3, True), "ms/call"),
        "chain.delivery_calls": (per_op("chain.delivery"), "count/op"),
        "optimize.solve_ms": (per_call("optimize.solve", 1e3), "ms/call"),
        "optimize.self_ms": (per_call("optimize.solve", 1e3, True), "ms/call"),
        "optimize.iterations": (
            statistics.fmean(int(r["iterations"]) for _, r in opts), "count/solve"),
        "trace.ops_per_s": (n_ops / elapsed, "1/s"),
    }

    shares: dict[str, float] = {}
    for name, (_, _, self_total) in own.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + self_total / main_total
    summary = {
        "workload": workload, "seed": seed, "ops": n_ops, "spans": len(tracer),
        "self_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "spans_cover_op_time": main_total / sum(map(sum, times)),
        "by_span": {k: {"calls": c, "total_s": t, "self_s": s}
                    for k, (c, t, s) in sorted(own.items())},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload}.csv.gz"))
    with open(os.path.join(OUT_DIR, f"trace-{workload}-summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print("layer self-time shares: " + ", ".join(
        f"{k} {v:.1%}" for k, v in summary["self_share"].items())
        + f"; spans cover {summary['spans_cover_op_time']:.1%} of op wall time")
    return metrics, problems, len(rounds), len(ops), failed


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "srlnc", "cli.py")):
        print(f"bench: no srlnc package under {SRC}", file=sys.stderr)
        return 2

    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    metrics, problems, rounds, ops_per_round, failed = measure(
        args.workload, args.seed, args.seconds)
    for line in problems[:20]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": rounds * ops_per_round,
        "failed": rounds * failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, **result}, fh, indent=2)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

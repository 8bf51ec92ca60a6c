"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/steady.py --runs 10 --first-seed 100 [--workload NAME ...]

Runs ``bench/run.py`` serially with tracing off, once per seed and
workload, with the settings in BENCHMARK.json.  For every metric it prints
the median and the distance between the first and third quartiles
(``statistics.quantiles``, n=4) as a share of the median, next to the
metric's bound.  All values go to ``bench/out/steady-<first-seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    table = {}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            if cmd[0] == "python3":
                cmd[0] = sys.executable
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(name, seed, result["attempted"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        table[name] = runs
        print(f"\n{name}: failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric:26s} median {med:12.5g}  IQR/median "
                  f"{(q3 - q1) / med:7.2%}  bound {bounds.get(metric)}")
        print(flush=True)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    path = os.path.join(BENCH_DIR, "out", f"steady-{args.first_seed}.json")
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same code.

Run from the root of a checkout:

    python3 perfbench/steady.py --first-seed 1

Each of two sets runs ``perfbench/run.py`` once per seed, ten seeds, on
every workload named in BENCHMARK.json (set k uses seeds
first-seed + 10k ... first-seed + 10k + 9). For each
end-to-end metric and workload it prints, per set, the median, the
quartiles and the spread (interquartile distance over the median), then
the difference between the set medians, each against the metric's bound.
It also prints the medians of the reference loop that every run times,
so that a slow machine can be told apart from a slow program, and the
share of failed operations in each set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
RUNS = 10  # per set and workload


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    reference = next(line for line in lines if line.startswith("rounds "))
    result["reference_s"] = float(reference.split("reference_s ")[1].split()[0])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(first quartile, median, third quartile, IQR / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for i in range(RUNS):
            seed = args.first_seed + k * RUNS + i
            # alternate the workload order so neither always runs first
            order = workloads if i % 2 == 0 else workloads[::-1]
            for workload in order:
                result = one_run(workload, seed, bench["run_seconds"])
                results[workload][k].append(result)
                print(f"set {k} seed {seed} {workload}: reference_s={result['reference_s']:.4g} "
                      + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                      file=sys.stderr, flush=True)

    worst_ok = True
    for workload in workloads:
        print(f"\n== {workload} ({RUNS} runs per set)")
        sets = results[workload]
        for k, runs in enumerate(sets):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            reference = statistics.median(r["reference_s"] for r in runs)
            print(f"set {k}: failed {failed}/{attempted}, reference loop median {reference:.6f} s")
        print(f"{'metric':<14}{'bound':>7}  " + "  ".join(
            f"{'set%d median [q1, q3] spread' % k:>40}" for k in range(len(sets))) + f"{'diff':>9}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for runs in sets:
                q1, med, q3, share = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                flag = "" if share <= bound else "!"
                cells.append(f"{med:10.4f} [{q1:.4f}, {q3:.4f}] {share:6.2%}{flag:1}")
                worst_ok &= share <= bound
            diff = max(medians) / min(medians) - 1
            worst_ok &= diff <= bound
            print(f"{name:<14}{bound:>7.2f}  " + "  ".join(f"{c:>40}" for c in cells)
                  + f"{diff:>8.2%}{'' if diff <= bound else '!'}")
    print("\nsteady" if worst_ok else "\nNOT steady: a spread or a difference exceeds its bound (marked !)")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())

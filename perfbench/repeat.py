#!/usr/bin/env python3
"""Repeat-run tool: shows whether the benchmark is steady.

Runs one workload N times, each with another seed, and prints each
end-to-end metric's median and spread (IQR/median, with quartiles from
statistics.quantiles(values, n=4)). Every run measures for run_seconds
of BENCHMARK.json. A spread above the metric's bound in BENCHMARK.json
is flagged FAIL; one above a third of the bound is flagged "wide". With
--against, the medians are compared with an earlier batch saved by
--save.

Run from the repository root:

    python3 perfbench/repeat.py --workload train-step --runs 10
    python3 perfbench/repeat.py --workload serve-mixed --runs 10 --save a.json
    python3 perfbench/repeat.py --workload serve-mixed --runs 10 --against a.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    drift = [l for l in proc.stderr.splitlines()
             if "host drift" in l or "set-up times" in l]
    return json.loads(proc.stdout.strip().splitlines()[-1]), drift


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--save", help="write the per-run values to this JSON file")
    ap.add_argument("--against", help="compare medians with a batch saved by --save")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in metrics}
    for i in range(args.runs):
        seed = args.seed_start + i
        res, drift = run_once(bench["command"], args.workload, seed, seconds)
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} operations failed")
        for name in metrics:
            values[name].append(res["metrics"][name]["value"])
        row = " ".join(f"{n}={values[n][-1]:.4g}" for n in metrics)
        print(f"seed {seed}: attempted={res['attempted']} failed={res['failed']} {row}")
        for line in drift:
            print("   ", line.split("perfbench: ")[-1])
        sys.stdout.flush()

    worst = "ok"
    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    print(f"{'metric':<18}{'median':>14}{'IQR/median':>12}{'bound':>8}  status")
    for name, m in metrics.items():
        med, sp = spread(values[name])
        status = "ok"
        if sp > m["bound"]:
            status, worst = "FAIL", "FAIL"
        elif sp > m["bound"] / 3:
            status = "wide"
        print(f"{name:<18}{med:>14.6g}{sp:>12.4f}{m['bound']:>8}  {status}")
    if args.against:
        before = json.load(open(args.against))
        print("\nagainst", args.against)
        for name, m in metrics.items():
            old, new = statistics.median(before[name]), statistics.median(values[name])
            worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
            status = "FAIL" if worse > m["bound"] else "ok"
            worst = "FAIL" if status == "FAIL" else worst
            print(f"{name:<18}{old:>14.6g}{new:>14.6g}{worse:>+10.4f}  {status}")
    if args.save:
        json.dump(values, open(args.save, "w"), indent=1)
    return 1 if worst == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())

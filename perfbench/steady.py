#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of the same build agree?

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--seconds S]

Run from the root of a checkout. For every workload in BENCHMARK.json
(or the ones named), runs `perfbench/run.py --trace 0` `--runs` times
per set, each run with its own seed (set k uses seeds k*1000+1 ...).
For each end-to-end metric it reports, per set, the median and the
spread (distance between the first and third quartile, as a share of
the median), and checks it against the metric's bound:

  * every set's spread stays within the bound, `setup_s` included;
  * every later set's median differs from the first set's, in either
    direction, by at most the bound (as a share of the first median).

Prints one line per workload and metric, writes every run's result to
`--out` (default `perfbench/target/steady.json`), and exits 1 when a
check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: oracle failed:\n{out.stdout}")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--out", default=os.path.join(HERE, "target", "steady.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {}
    ok = True
    for name in names:
        sets = []
        for k in range(1, args.sets + 1):
            runs = []
            for i in range(args.runs):
                seed = k * 1000 + i + 1
                r = run_once(name, seed, seconds)
                runs.append({"seed": seed, **r})
                print(f"  {name} set {k} seed {seed}: " + ", ".join(
                    f"{m}={v['value']:.6g}" for m, v in r["metrics"].items()), flush=True)
            sets.append(runs)
        results[name] = sets
        for m in metrics:
            key, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][key]["value"] for r in runs]) for runs in sets]
            verdicts = []
            for k, (med, sp) in enumerate(stats, start=1):
                good = sp <= bound
                verdicts.append(f"set {k}: median {med:.6g} spread {sp:.3f}{'' if good else ' TOO WIDE'}")
                ok &= good
            m1 = stats[0][0]
            for k, (mk, _) in enumerate(stats[1:], start=2):
                diff = (mk - m1) / m1
                good = abs(diff) <= bound
                ok &= good
                verdicts.append(f"set {k} median vs set 1 {diff:+.3f}{'' if good else ' OUT OF BOUND'}")
            print(f"{name:20} {key:16} bound {bound}: " + "; ".join(verdicts), flush=True)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(results, f, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness command: run workloads repeatedly and report how much each
end-to-end metric spreads against its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads chaos-2t,paper-1t] [--runs 10]
        [--sets 2] [--first-seed 1] [--save FILE] [--compare FILE]

The workloads default to those of BENCHMARK.json; any workload the
command accepts can be named. Each set holds `--runs` runs of every
workload, each run with its own
seed (set s, run i uses seed first_seed + s * runs + i). Runs go round
robin: run i of every set and every workload comes before run i + 1 of
any, and the order of the sets alternates from one round to the next,
so a slow or fast stretch of the machine falls on every workload and on
both sets rather than on one of them.

For each set and metric it prints the median, the first and third
quartiles (Python's statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound; a spread above the bound
is TOO WIDE. With two sets, the second set's medians are compared with
the first's: a metric REGRESSED when it is worse by more than its bound,
and the share of failed operations must be the same. --save writes the
last set as JSON; --compare FILE compares the last set with a saved one
in the same way. Exits 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def spread_table(label, results, metrics):
    """Print one set's table; return whether every spread is in bound
    and every run was correct."""
    steady = True
    print()
    print(label)
    print(f"{'workload':<11} {'metric':<13} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for workload, runs in results.items():
        for name, spec in metrics.items():
            med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in runs])
            if spread <= spec["bound"] / 3:
                verdict = "ok (< bound/3)"
            elif spread <= spec["bound"]:
                verdict = "ok"
            else:
                verdict = "TOO WIDE"
                steady = False
            print(f"{workload:<11} {name:<13} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>8.4f} {spec['bound']:>6}  {verdict}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        wrong = sum(not r["correct"] for r in runs)
        print(f"{workload:<11} failed {failed}/{attempted} operations, "
              f"{wrong} run(s) with a failed check")
        if wrong:
            steady = False
    return steady


def compare(label, before, after, metrics):
    """Print how `after`'s medians moved against `before`'s; return
    whether every metric stayed within its bound and the failed shares
    agree."""
    ok_all = True
    print()
    print(label)
    for workload, runs in after.items():
        if workload not in before:
            continue
        old_runs = before[workload]
        for name, spec in metrics.items():
            old = statistics.median(r["metrics"][name]["value"] for r in old_runs)
            new = statistics.median(r["metrics"][name]["value"] for r in runs)
            worse = (new - old) / old if spec["better"] == "lower" else (old - new) / old
            ok = worse <= spec["bound"]
            ok_all = ok_all and ok
            print(f"{workload:<11} {name:<13} {old:>11.5g} -> {new:>11.5g} "
                  f"worse by {worse:+.4f} (bound {spec['bound']})  "
                  f"{'ok' if ok else 'REGRESSED'}")

        def share(rs):
            return sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)

        (f0, a0), (f1, a1) = share(old_runs), share(runs)
        same = f0 * a1 == f1 * a0
        ok_all = ok_all and same
        print(f"{workload:<11} failed share {f0}/{a0} -> {f1}/{a1}  "
              f"{'same' if same else 'DIFFERS'}")
    return ok_all


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2 to give quartiles")
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = [{w: [] for w in workloads} for _ in range(args.sets)]
    for i in range(args.runs):
        order = list(range(args.sets))
        if i % 2:
            order.reverse()
        for workload in workloads:
            for s in order:
                seed = args.first_seed + s * args.runs + i
                out = run_once(bench, workload, seed)
                sets[s][workload].append(out)
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
                print(f"set {s + 1} {workload} seed {seed}: correct={out['correct']} "
                      f"attempted={out['attempted']} failed={out['failed']} {shown}",
                      flush=True)

    steady = True
    for s, results in enumerate(sets):
        steady &= spread_table(f"set {s + 1}", results, metrics)
    if args.sets == 2:
        steady &= compare("set 2 medians against set 1", sets[0], sets[1], metrics)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(sets[-1], f, indent=1)
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
        steady &= compare(f"medians against {args.compare}", before, sets[-1], metrics)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

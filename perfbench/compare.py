#!/usr/bin/env python3
"""Collects benchmark runs and judges them against BENCHMARK.json's bounds.

    # N untraced runs of one workload (seeds base..base+N-1), each
    # BENCHMARK.json's run_seconds long, one output file each
    python3 perfbench/compare.py collect --workload encode --runs 10 \\
        --seed-base 1 --out runs/parent

    # one set of runs: per workload and end-to-end metric, the median,
    # quartiles and quartile spread against the metric's bound
    python3 perfbench/compare.py spread runs/parent

    # two sets (parent and change, same benchmark code and run length):
    # medians and quartiles of each side, the pair win share and a verdict
    python3 perfbench/compare.py compare runs/parent runs/change

Run from the root of a checkout. A run file holds the stdout of one
`perfbench/run.py` run: its first line names the workload, seed, run length
and trace flag ("workload=<name> seed=<n> seconds=<s> trace=0"), its last
line is the JSON result. Every run must be untraced and as long as
BENCHMARK.json's run_seconds. Runs are paired by seed; a seed that only
one side ran is left out. Collect both sides with the same seeds and
alternate which side runs first.

Verdicts follow the benchmark method (choosing-metrics guide, sections 6.5
and 8), with spread = (q3 - q1) / median, the larger of the two sides':
  improved      the change wins at least 9/10 of the pairs (ties count for
                neither side) and its median beats the parent's by more
                than the parent's own quartile distance;
  unresolved    the spread is wider than the bound and not every change run
                is better than every parent run;
  regressed     the change's median is worse than the parent's by more than
                the bound;
  within bound  otherwise.
A gain does not count when the change fails more operations than the
parent; the report says so.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def read_runs(directory, run_seconds):
    """{workload: {seed: result}} from the run files in directory.

    Every run must be untraced and measured for run_seconds seconds, the
    run length BENCHMARK.json fixes for both sides of a comparison.
    """
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines or not lines[-1].startswith("{"):
            print(f"skipping {path}: no result line", file=sys.stderr)
            continue
        header = dict(kv.split("=", 1) for kv in lines[0].split()
                      if "=" in kv)
        if header.get("trace") != "0":
            sys.exit(f"{path}: not an untraced run")
        if float(header["seconds"]) != run_seconds:
            sys.exit(f"{path}: measured {header['seconds']} s, but "
                     f"BENCHMARK.json's run_seconds is {run_seconds}")
        seeds = runs.setdefault(header["workload"], {})
        seed = int(header["seed"])
        if seed in seeds:
            sys.exit(f"{path}: a second run with seed {seed}")
        seeds[seed] = json.loads(lines[-1])
    return runs


def pair_by_seed(parent, change):
    """The runs of one workload that both sides ran with the same seed, in
    seed order, and the number of runs left without a partner."""
    seeds = sorted(set(parent) & set(change))
    unpaired = len(parent) + len(change) - 2 * len(seeds)
    return ([parent[seed] for seed in seeds],
            [change[seed] for seed in seeds], unpaired)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    return q1, q2, q3, spread


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric):
    direction, bound = metric["better"], metric["bound"]
    p1, pm, p3, p_spread = summary(parent)
    _, cm, _, c_spread = summary(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    win_share = wins / len(pairs)
    worse_by = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
    all_better = all(better(c, p, direction)
                     for c in change for p in parent)
    if (win_share >= 0.9 and better(cm, pm, direction)
            and abs(cm - pm) > (p3 - p1)):
        return "improved", win_share
    if max(p_spread, c_spread) > bound and not all_better:
        return "unresolved", win_share
    if worse_by > bound:
        return "regressed", win_share
    return "within bound", win_share


def fmt(x):
    return f"{x:.6g}"


def cmd_collect(args):
    os.makedirs(args.out, exist_ok=True)
    spec = load_spec()
    status = 0
    for i in range(args.runs):
        seed = args.seed_base + i
        command = [sys.executable, "perfbench/run.py", "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        path = os.path.join(args.out, f"{args.workload}-{seed}.out")
        with open(path, "w") as f:
            f.write(done.stdout)
        print(f"{path}: exit {done.returncode}")
        status = status or done.returncode
    return status


def cmd_spread(args):
    spec = load_spec()
    runs = read_runs(args.runs, spec["run_seconds"])
    status = 0
    for workload, by_seed in sorted(runs.items()):
        results = list(by_seed.values())
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, failed {failed} of "
              f"{attempted}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in results]
            if len(values) < 2:
                continue
            q1, q2, q3, spread = summary(values)
            ok = spread <= metric["bound"]
            status = status or (0 if ok else 1)
            print(f"  {metric['name']:18} median {fmt(q2):>10} "
                  f"[{fmt(q1)}, {fmt(q3)}] {metric['unit']:6} spread "
                  f"{spread:.3f} / bound {metric['bound']}"
                  f"{'' if ok else '  TOO WIDE'}")
    return status


def cmd_compare(args):
    spec = load_spec()
    parent = read_runs(args.parent, spec["run_seconds"])
    change = read_runs(args.change, spec["run_seconds"])
    status = 0
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs, unpaired = pair_by_seed(parent[workload],
                                                change[workload])
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        print(f"{workload}: {len(p_runs)} pairs by seed ({unpaired} runs "
              f"without a partner left out); failed ops parent "
              f"{p_failed}, change {c_failed}")
        if len(p_runs) < 2:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            result, win_share = verdict(pv, cv, metric)
            if result == "improved" and c_failed > p_failed:
                result = "improved, but does not count (more failures)"
            if result.startswith("regressed"):
                status = 1
            pq, cq = summary(pv), summary(cv)
            print(f"  {name:18} parent {fmt(pq[1]):>10} [{fmt(pq[0])}, "
                  f"{fmt(pq[2])}]  change {fmt(cq[1]):>10} [{fmt(cq[0])}, "
                  f"{fmt(cq[2])}] {metric['unit']:6} wins "
                  f"{win_share:.2f}  {result}")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"workloads on one side only: {missing}")
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect", help="run a workload N times")
    collect.add_argument("--workload", required=True)
    collect.add_argument("--runs", type=int, default=10)
    collect.add_argument("--seed-base", type=int, default=1)
    collect.add_argument("--out", required=True)
    spread = sub.add_parser("spread", help="spread of one set of runs")
    spread.add_argument("runs")
    compare = sub.add_parser("compare", help="parent vs change verdicts")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args()
    handler = {"collect": cmd_collect, "spread": cmd_spread,
               "compare": cmd_compare}[args.command]
    sys.exit(handler(args))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Collect benchmark results and compare two sets of them.

    # ten runs of one workload, one line of JSON per run
    python3 perfbench/compare.py collect --workload fleet_steady \\
        --seeds 1-10 --out .bench_build/results/base.jsonl
    # median, quartiles and spread of each metric against its bound
    python3 perfbench/compare.py spread .bench_build/results/base.jsonl
    # per-metric deltas between two result files
    python3 perfbench/compare.py diff base.jsonl new.jsonl

Spread is (Q3 - Q1) / median over the runs of one workload, with quartiles
from `statistics.quantiles(values, n=4)`. Bounds come from BENCHMARK.json.
A pair is *unresolved* when either side's spread exceeds the metric's bound,
unless every run of the new side beats every run of the base side.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec, _ = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds", str(seconds),
                                 "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("run failed: %s" % " ".join(cmd), file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "trace": args.trace, "result": result}) + "\n")
        print("%s seed %d: correct=%s attempted=%d failed=%d" % (
            args.workload, seed, result["correct"], result["attempted"],
            result["failed"]))
    return 0


def read_runs(path):
    """{workload: {metric: [values]}} plus failure totals per workload."""
    values, failures = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            w, r = run["workload"], run["result"]
            failures[w] = failures.get(w, 0) + r["failed"] + (not r["correct"])
            for name, m in r["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
    return values, failures


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread_of(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def spread(args):
    _, spec = load_spec()
    values, failures = read_runs(args.file)
    ok = True
    for w in sorted(values):
        print("%s (%d failed ops)" % (w, failures[w]))
        for name, xs in values[w].items():
            q1, q2, q3 = quartiles(xs)
            bound = spec.get(name, {}).get("bound")
            s = spread_of(xs)
            flag = ""
            if bound is not None:
                flag = "ok" if s <= bound / 3 else (
                    "within bound" if s <= bound else "TOO NOISY")
                ok = ok and s <= bound
            print("  %-30s n=%-2d median %-12.6g [%.6g, %.6g] spread %6.2f%%"
                  " bound %s %s" % (name, len(xs), q2, q1, q3, 100 * s,
                                    "-" if bound is None else "%g" % bound,
                                    flag))
    return 0 if ok else 1


def diff(args):
    _, spec = load_spec()
    base, _ = read_runs(args.base)
    new, _ = read_runs(args.new)
    for w in sorted(set(base) & set(new)):
        print(w)
        for name in base[w]:
            if name not in new[w]:
                continue
            b, n = base[w][name], new[w][name]
            bq, nq = quartiles(b), quartiles(n)
            m = spec.get(name, {})
            lower = m.get("better", "lower") == "lower"
            delta = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            worse = delta if lower else -delta
            bound = m.get("bound")
            noise = max(spread_of(b), spread_of(n))
            all_better = (max(n) < min(b)) if lower else (min(n) > max(b))
            if bound is None:
                verdict = "no bound"
            elif noise > bound and not all_better:
                verdict = "UNRESOLVED (spread %.1f%% > bound)" % (100 * noise)
            elif worse > bound:
                verdict = "WORSE beyond bound"
            elif -worse > spread_of(b) or all_better:
                verdict = "better"
            else:
                verdict = "within bound"
            print("  %-30s base %-11.6g [%.6g, %.6g]  new %-11.6g [%.6g, %.6g]"
                  "  %+7.2f%%  %s" % (name, bq[1], bq[0], bq[2], nq[1], nq[0],
                                      nq[2], 100 * delta, verdict))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=int)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("file")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = ap.parse_args()
    return {"collect": collect, "spread": spread, "diff": diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two result sets of the dpjoin_serve benchmark (stdlib only).

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run, named <workload>-<seed>.json, whose
last line is the JSON result perfbench/run.py printed. For every workload
and metric the report gives each side's median and interquartile range
(IQR, as a share of the median), the operations attempted and failed, and
a verdict:

  regression   NEW's median is worse than BASE's by more than the bound
  gain         NEW wins at least 9 of 10 runs paired by seed (ties count for
               neither side) and the medians differ by more than BASE's IQR
  unresolved   BASE's own IQR is wider than the bound, and not every NEW run
               is better than every BASE run
  same         none of the above

Per-layer metrics have no bound; they get `gain` or `-`. The exit code is 1
when any metric regresses, when a run's checks failed, or when the failed
share of a workload rises (a share that falls, say because a fault that
made operations fail was mended, is reported but accepted).
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{workload: {seed: result}}"""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or "-" not in name:
            continue
        workload, seed = name[:-5].rsplit("-", 1)
        with open(os.path.join(directory, name)) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        runs.setdefault(workload, {})[seed] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def worse_share(base, new, better):
    """How much worse NEW is than BASE, as a share of BASE (negative when
    better)."""
    if base == 0:
        return 0.0
    diff = (new - base) / abs(base)
    return diff if better == "lower" else -diff


def pair_wins(base_runs, new_runs, metric, better):
    """(wins, pairs): runs paired by seed where both sides have it, else by
    position; ties count for neither side."""
    common = sorted(set(base_runs) & set(new_runs))
    if common:
        pairs = [(base_runs[s], new_runs[s]) for s in common]
    else:
        pairs = list(zip(base_runs.values(), new_runs.values()))
    pairs = [(b, n) for b, n in pairs
             if metric in b["metrics"] and metric in n["metrics"]]
    wins = 0
    for b, n in pairs:
        bv = b["metrics"][metric]["value"]
        nv = n["metrics"][metric]["value"]
        if (nv < bv) if better == "lower" else (nv > bv):
            wins += 1
    return wins, len(pairs)


def verdict(base_vals, new_vals, wins, pairs, better, bound):
    b_lo, b_med, b_hi = quartiles(base_vals)
    n_med = statistics.median(new_vals)
    iqr = b_hi - b_lo
    if bound is not None and worse_share(b_med, n_med, better) > bound:
        return "regression"
    if pairs and wins * 10 >= 9 * pairs and abs(n_med - b_med) > iqr:
        return "gain"
    if bound is not None and b_med and iqr / abs(b_med) > bound:
        all_better = (max(new_vals) < min(base_vals) if better == "lower"
                      else min(new_vals) > max(base_vals))
        if not all_better:
            return "unresolved"
    return "same" if bound is not None else "-"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"], m.get("bound"))
               for m in spec["end_to_end"] + spec["per_layer"]]
    base, new = load(args.base), load(args.new)
    bad = False
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, {}), new.get(workload, {})
        if not b_runs or not n_runs:
            print("%s: missing on one side" % workload)
            bad = True
            continue
        shares = []
        for runs in (b_runs, n_runs):
            att = sum(r["attempted"] for r in runs.values())
            fail = sum(r["failed"] for r in runs.values())
            shares.append((att, fail))
        print("== %s  base: %d runs, %d attempted, %d failed | "
              "new: %d runs, %d attempted, %d failed" % (
                  workload, len(b_runs), shares[0][0], shares[0][1],
                  len(n_runs), shares[1][0], shares[1][1]))
        share = [f / a if a else 0.0 for a, f in shares]
        if share[1] > share[0]:
            print("   failed share rises: %.6f -> %.6f" % tuple(share))
            bad = True
        elif share[1] < share[0]:
            print("   failed share falls: %.6f -> %.6f" % tuple(share))
        incorrect = [s for runs in (b_runs, n_runs)
                     for s, r in runs.items() if not r["correct"]]
        if incorrect:
            print("   runs with failed checks: %s" % ", ".join(incorrect))
            bad = True
        print("   %-34s %14s %8s %14s %8s %8s  %s" % (
            "metric", "base median", "IQR", "new median", "IQR",
            "worse by", "verdict"))
        for name, better, bound in metrics:
            bv = [r["metrics"][name]["value"] for r in b_runs.values()
                  if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs.values()
                  if name in r["metrics"]]
            if not bv or not nv:
                continue
            b_lo, b_med, b_hi = quartiles(bv)
            n_lo, n_med, n_hi = quartiles(nv)
            wins, pairs = pair_wins(b_runs, n_runs, name, better)
            v = verdict(bv, nv, wins, pairs, better, bound)
            bad |= v == "regression"

            def share_of(lo, hi, med):
                return (hi - lo) / abs(med) if med else 0.0
            print("   %-34s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%%  %s%s" % (
                name, b_med, 100 * share_of(b_lo, b_hi, b_med), n_med,
                100 * share_of(n_lo, n_hi, n_med),
                100 * worse_share(b_med, n_med, better), v,
                " (%d/%d pairs)" % (wins, pairs) if v == "gain" else ""))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

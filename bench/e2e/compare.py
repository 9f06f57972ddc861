#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts with one benchmark.

    python3 bench/e2e/compare.py --a ../parent --b . [--pairs 10]

The benchmark program in this directory (wsc_e2e) is built twice, once
against each side's src/ (into .bench_build/compare-a and compare-b),
so both sides run identical benchmark code. A side is any checkout, for
example one made with `git worktree add ../parent HEAD~1`. Each pair
runs every workload of BENCHMARK.json for its run_seconds on both sides
with the same seed, alternating which side runs first; pair i uses seed
SEED_BASE + i.

For every workload x end-to-end metric it prints each side's median
and quartiles, the change of B's median against A's, the share of
pairs B won (ties count for neither side), A's spread (quartile
distance over median) and a verdict against the metric's bound in
BENCHMARK.json:

  better / worse   at least 10 pairs, B won >= 90% of them (or lost
                   them) and the medians differ by more than A's
                   quartile distance;
  regression       B's median is worse than A's by more than the bound;
  unresolved       A's spread exceeds the bound, unless every B run beats
                   (or trails) every A run;
  same             none of the above.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (same directory)

# Fewer pairs than this never support a "better" or "worse" verdict.
MIN_PAIRS_FOR_CLAIM = 10
SEED_BASE = 1000


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, higher_is_better):
    sign = 1.0 if higher_is_better else -1.0
    a1, am, a3 = quartiles(a)
    _, bm, _ = quartiles(b)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    spread = (a3 - a1) / am if am else 0.0
    change = (bm - am) / am if am else 0.0
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    all_worse = max(sign * v for v in b) < min(sign * v for v in a)
    n = len(a)
    if spread > bound and not (all_better or all_worse):
        return "unresolved", wins / n, spread, change
    enough = n >= MIN_PAIRS_FOR_CLAIM
    if enough and wins >= 0.9 * n and abs(bm - am) > (a3 - a1):
        return "better", wins / n, spread, change
    if sign * change < -bound:
        return "regression", wins / n, spread, change
    if enough and losses >= 0.9 * n and abs(bm - am) > (a3 - a1):
        return "worse", wins / n, spread, change
    return "same", wins / n, spread, change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="checkout A (baseline)")
    parser.add_argument("--b", required=True, help="checkout B (change)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {}
    for key, path in (("a", args.a), ("b", args.b)):
        root = os.path.abspath(path)
        build_dir = os.path.join(run.ROOT, ".bench_build", "compare-" + key)
        sides[key] = (root, run.build(root, build_dir))
    out = os.path.join(run.ROOT, ".bench_build", "compare-runs")

    values = {(w, s): {} for w in workloads for s in sides}
    incorrect = []
    for i in range(args.pairs):
        seed = SEED_BASE + i
        order = ["a", "b"] if i % 2 == 0 else ["b", "a"]
        for w in workloads:
            for s in order:
                root, binary = sides[s]
                result = run.run_program(binary, w, seed, seconds, False,
                                        root=root, out=os.path.join(out, s))
                if not result["correct"]:
                    incorrect.append((s, w, seed))
                for name, m in result["metrics"].items():
                    values[(w, s)].setdefault(name, []).append(m["value"])
            run.log("pair %d/%d done (seed %d)" % (i + 1, args.pairs, seed))

    print("%-12s %-13s %24s %24s %8s %6s %7s  %s"
          % ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
             "change", "B won", "spread", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            a = values[(w, "a")].get(m["name"])
            b = values[(w, "b")].get(m["name"])
            if not a or not b:
                continue
            v, won, spread, change = verdict(a, b, m["bound"],
                                             m["better"] == "higher")
            fa = "%.4g [%.4g, %.4g]" % tuple(quartiles(a)[i] for i in (1, 0, 2))
            fb = "%.4g [%.4g, %.4g]" % tuple(quartiles(b)[i] for i in (1, 0, 2))
            print("%-12s %-13s %24s %24s %+7.1f%% %5.0f%% %6.1f%%  %s"
                  % (w, m["name"], fa, fb, 100 * change, 100 * won,
                     100 * spread, v))
    for s, w, seed in incorrect:
        print("INCORRECT: side %s, %s, seed %d" % (s, w, seed))
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())

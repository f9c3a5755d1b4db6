#!/usr/bin/env python3
"""Alternating benchmark pairs of two trees, and the rule for a claim.

Usage: perf_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 25] [--seed 1]

PARENT and CHANGE are two checkouts of this repository.  Pair i runs
`perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0` in
each tree, from its root, parent first in even pairs and change first
in odd ones.  The script exits 1 if a run fails or if the two runs of a
pair report different `wire_sha256`: the trees did not write the same
bytes, and their timings do not compare the same work.

Then, per end-to-end metric of the BENCHMARK.json next to this script,
it prints the parent's and the change's medians, the parent's quartiles,
the change in the medians, the pairs the change won (ties count for
neither side) and the metric's bound, with a verdict by the rule that
the design guides state:

  gain         the change won at least 9 of 10 pairs and its median is
               better by more than the parent's interquartile range
  regression   the change's median is worse by more than the bound
  unresolved   the parent's interquartile range is wider than the
               bound, and not every change run beats every parent run
  within bound otherwise

Run it from anywhere; each tree needs its `src` and `perfbench`.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run(tree: Path, workload: str, seed: int, seconds: int) -> tuple[str, dict]:
    """The wire digest and the result object of one untraced run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"perf_pairs.py: the run in {tree} at seed {seed} failed:\n{proc.stderr}")
    digest = re.search(r"wire_sha256=(\w+)", proc.stdout)
    return digest.group(1) if digest else "", json.loads(lines[-1])


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple:
    """(parent quartiles, their distance and the median change as
    fractions of the parent median, pairs won, verdict) of one metric;
    `better` is "lower" or "higher"."""
    sign = 1 if better == "higher" else -1
    base = float(np.median(parent))
    q1, q3 = np.percentile(parent, [25, 75])
    delta = (float(np.median(change)) - base) / base if base else 0.0
    iqr = (q3 - q1) / base if base else 0.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if won >= 0.9 * len(parent) and sign * delta > iqr:
        word = "gain"
    elif -sign * delta > bound:
        word = "regression"
    elif iqr > bound and not (min(change) > max(parent) if sign > 0
                              else max(change) < min(parent)):
        word = "unresolved"
    else:
        word = "within bound"
    return q1, q3, iqr, delta, won, word


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    args = ap.parse_args(argv)
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        digests = {}
        for side in order:
            digests[side], result = run(getattr(args, side), args.workload, seed, args.seconds)
            results[side].append(result)
            print(f"# pair {i + 1} seed {seed} {side}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, wire_sha256 {digests[side][:16]}", flush=True)
        if digests["parent"] != digests["change"]:
            print(f"perf_pairs.py: pair {i + 1} wrote different bytes", file=sys.stderr)
            return 1
    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds} s from seed {args.seed}; "
          + "; ".join(f"{side} failed {sum(r['failed'] for r in runs)} of "
                      f"{sum(r['attempted'] for r in runs)}" for side, runs in results.items()))
    print(f"{'metric':22s} {'parent':>10s} {'change':>10s} {'Δ':>7s} {'parent q1':>10s} "
          f"{'parent q3':>10s} {'IQR':>6s} {'won':>5s} {'bound':>6s}  verdict")
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in results}
        q1, q3, iqr, delta, won, word = verdict(values["parent"], values["change"],
                                                metric["better"], metric["bound"])
        print(f"{name:22s} {np.median(values['parent']):10.4g} {np.median(values['change']):10.4g} "
              f"{delta:+7.1%} {q1:10.4g} {q3:10.4g} {iqr:6.1%} {won:>2d}/{args.pairs:<2d} "
              f"{metric['bound']:6.0%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

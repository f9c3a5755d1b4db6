#!/usr/bin/env python3
"""Run workloads untraced and traced, and print every metric with its unit.

    python3 perfbench/report.py [--workload NAME ...] [--seed N] [--seconds S]

Run it from the repository root.  Each run is its own process, so
``peak_rss_mb`` is per workload.  Every run passes through the
correctness gate (roundtrips, tamper probes, key encodings); the command
exits 1 if any run fails it or leaves out a metric BENCHMARK.json names.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int):
    """(comment lines, result object or None) of one benchmark process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args()
    ok = True
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            comments, result = run(workload, args.seed, args.seconds, trace)
            print(f"== {workload} seed={args.seed} seconds={args.seconds} {kind}")
            for line in comments:
                print(line)
            if result is None:
                print("run failed")
                ok = False
                continue
            print(f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            ok &= result["correct"]
            for metric in SPEC[kind]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    print(f"{metric['name']:34s} MISSING or not in {metric['unit']}")
                    ok = False
                    continue
                print(f"{metric['name']:34s} {got['value']:16.6g} {got['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

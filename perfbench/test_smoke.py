"""Smoke test of the benchmark, on the fast toy-bulk workload.

    python3 -m pytest perfbench/test_smoke.py

Run from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 300


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT)


def toy_run(seed: int, trace: int):
    proc = bench("--workload", "toy-bulk", "--seed", str(seed),
                 "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digest = next(line for line in lines if "wire_sha256=" in line)
    return digest.rsplit("wire_sha256=", 1)[1], json.loads(lines[-1])


def test_report_prints_every_metric_and_passes_the_gate():
    proc = subprocess.run(
        [sys.executable, "perfbench/report.py", "--workload", "toy-bulk",
         "--seconds", "1"], cwd=ROOT, capture_output=True, text=True,
        timeout=TIMEOUT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"{metric['name']} " in proc.stdout
        assert "MISSING" not in proc.stdout


def test_same_seed_same_work():
    digest, e2e = toy_run(7, 0)
    again, _ = toy_run(7, 0)
    traced_digest, traced = toy_run(7, 1)
    traced_again_digest, traced_again = toy_run(7, 1)
    assert digest == again == traced_digest == traced_again_digest
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] > 0
    assert set(e2e["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert traced["metrics"][name] == traced_again["metrics"][name]
    other, _ = toy_run(8, 0)
    assert other != digest


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "toy-bulk", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

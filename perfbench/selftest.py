#!/usr/bin/env python3
"""Fast self-test of the benchmark (about a minute after the build).

    python3 perfbench/selftest.py

Runs every workload at its smallest size (--smoke: 16 tiles, scale 1,
two apps) in both modes and asserts that each named metric is printed
with its unit, that BENCHMARK.json lists exactly the metrics run.py
reports, and that a forged mismatch -- a replay checked against the
other protocol's recording, a traced run checked against the other
protocol's product run -- is counted as a failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{' '.join(cmd)}\n{proc.stdout}{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_contract():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {n: u for n, (u, _) in END_TO_END.items()}, e2e
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == {n: u for n, (u, _) in PER_LAYER.items()}, layers


def check_metrics(workload, trace):
    text, result = bench(workload, trace)
    expected = {n: u for n, (u, _) in (END_TO_END if trace == 0 else PER_LAYER).items()}
    assert result["correct"] and result["failed"] == 0, (workload, trace, text)
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected), (workload, trace)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit, (workload, name)
        printed = [ln for ln in text if ln.split()[:1] == [name]]
        assert printed and printed[0].split()[2] == unit, (workload, name, printed)
    assert any(ln.startswith("simulated-results digest") for ln in text)
    assert any(ln.startswith("provenance: host_nproc=") for ln in text)


def check_forged(workload, trace):
    text, result = bench(workload, trace, "--forge-mismatch")
    assert not result["correct"], (workload, trace)
    assert result["failed"] >= 1, (workload, trace, result["failed"])
    assert any(ln.strip().startswith("FAILED") for ln in text)


def main():
    check_contract()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_metrics(workload, trace)
            print(f"ok  {workload} --trace {trace}: every metric printed with its unit")
    check_forged("record_replay64", 0)
    check_forged("sweep64", 1)
    print("ok  forged mismatches are counted as failed operations")


if __name__ == "__main__":
    main()

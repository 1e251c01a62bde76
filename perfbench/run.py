#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric, checked.

    python3 perfbench/run.py --workload sweep64 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the perfbench binary (and the
simulator libraries it links) from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, prints every metric by name with its unit and, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from the traced pass. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))
from digest import digest  # noqa: E402

WORKLOADS = ("sweep64", "fft256", "traced64", "record_replay64")

# name -> (unit, paper reference or None). Simulated ratios are
# WiDir / Baseline at 64 tiles in the paper; the model is unvalidated
# against hardware, so the paper figure is a reference, not an error bar.
END_TO_END = {
    "wall_s": ("s", None),
    "sim_kips": ("kilo-instr/s", None),
    "setup_s": ("s", None),
    "peak_rss_mb": ("MB", None),
    "widir_norm_time": ("ratio", "paper Fig. 8: 0.78"),
    "widir_norm_mem_latency": ("ratio", "paper Fig. 7: 0.65"),
    "widir_norm_energy": ("ratio", "paper Fig. 9: 0.79"),
}

# name -> (unit, end-to-end metrics it should move), ROADMAP layer order.
PER_LAYER = {
    "system.build_s": ("s", ["setup_s", "wall_s"]),
    "system.teardown_s": ("s", ["setup_s", "wall_s"]),
    "system.check_s": ("s", ["setup_s", "wall_s"]),
    "system.run_s": ("s", ["sim_kips", "wall_s"]),
    "sim.events": ("count", ["sim_kips", "wall_s"]),
    "sim.events_per_run_s": ("1/s", ["sim_kips", "wall_s"]),
    "sim.inline_heap_fallbacks": ("count", ["sim_kips", "wall_s"]),
    "system.sweep_occupancy": ("ratio", ["wall_s"]),
    "system.report_s": ("s", ["wall_s"]),
    "system.product_wall_s": ("s", ["wall_s"]),
    "system.traced_wall_s": ("s", ["wall_s"]),
    "noc.messages": ("count", ["sim_kips"]),
    "noc.flit_hops": ("count", ["sim_kips"]),
    "noc.mean_latency_cycles": ("cycles", ["sim_kips"]),
    "noc.host_ns_per_send": ("ns", ["sim_kips"]),
    "mem.map_rehashes": ("count", ["peak_rss_mb", "setup_s"]),
    "mem.fetches": ("count", ["peak_rss_mb", "setup_s"]),
    "mem.writebacks": ("count", ["peak_rss_mb", "setup_s"]),
    "core.fabric.msgpool_grew": ("count", ["peak_rss_mb", "setup_s"]),
    "cpu.instructions": ("count", ["widir_norm_time", "widir_norm_mem_latency"]),
    "cpu.mem_ops": ("count", ["widir_norm_time", "widir_norm_mem_latency"]),
    "cpu.mem_stall_share": ("ratio", ["widir_norm_time", "widir_norm_mem_latency"]),
    "cpu.mem_op_latency_cycles": ("cycles", ["widir_norm_time", "widir_norm_mem_latency"]),
    "core.l1.accesses": ("count", ["widir_norm_mem_latency", "widir_norm_time"]),
    "core.l1.miss_ratio": ("ratio", ["widir_norm_mem_latency", "widir_norm_time"]),
    "core.l1.nacks_per_miss": ("ratio", ["widir_norm_mem_latency", "widir_norm_time"]),
    "core.l1.evictions": ("count", ["widir_norm_mem_latency", "widir_norm_time"]),
    "core.l1.wireless_writes": ("count", ["widir_norm_mem_latency", "widir_norm_time"]),
    "core.l1.wireless_squashes": ("count", ["widir_norm_mem_latency", "widir_norm_time"]),
    "core.dir.requests": ("count", ["widir_norm_time", "widir_norm_energy"]),
    "core.dir.nacks_sent": ("count", ["widir_norm_time", "widir_norm_energy"]),
    "core.dir.invs_sent": ("count", ["widir_norm_time", "widir_norm_energy"]),
    "core.dir.fwds": ("count", ["widir_norm_time", "widir_norm_energy"]),
    "core.dir.llc_recalls": ("count", ["widir_norm_time", "widir_norm_energy"]),
    "core.dir.to_wireless": ("count", ["widir_norm_time", "widir_norm_energy"]),
    "wireless.frames": ("count", ["widir_norm_time"]),
    "wireless.tx_attempts": ("count", ["widir_norm_time"]),
    "wireless.collision_prob": ("ratio", ["widir_norm_time"]),
    "wireless.busy_share": ("ratio", ["widir_norm_time"]),
    "wireless.censuses": ("count", ["widir_norm_time"]),
    "sim.trace.records": ("count", ["wall_s", "sim_kips"]),
    "sim.trace.dropped_ratio": ("ratio", ["wall_s", "sim_kips"]),
    "sim.trace.strict_share": ("ratio", ["wall_s", "sim_kips"]),
    "sim.trace.legality_s": ("s", ["wall_s", "sim_kips"]),
    "frontend.mtrace_bytes": ("bytes", ["wall_s"]),
    "frontend.mtrace_write_s": ("s", ["wall_s"]),
    "frontend.mtrace_read_s": ("s", ["wall_s"]),
    "frontend.replay_run_s": ("s", ["wall_s"]),
    "frontend.replay_match_share": ("ratio", ["wall_s"]),
}

# Environment knobs that would change what the product path runs:
# WIDIR_SIM_THREADS switches runExperiment onto the bound/weave kernel.
PINNED_ENV = re.compile(r"^(WIDIR_SIM_THREADS$|WIDIR_TRACE|WIDIR_BENCH_)")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def build(env):
    """Configure (once) and build the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_end_to_end(metrics):
    print("end-to-end metrics (host = this machine's wall clock; "
          "ratios = simulated machine, WiDir / Baseline):")
    for name, (unit, ref) in END_TO_END.items():
        if name in metrics:
            note = f"   [{ref}]" if ref else ""
            print(f"  {name:<24} {fmt(metrics[name]):>14} {unit}{note}")


def print_per_layer(layers, e2e):
    print("per-layer metrics from the traced pass, under the end-to-end "
          "metric each should move:")
    for target, (unit, _) in END_TO_END.items():
        rows = [n for n, (_, moves) in PER_LAYER.items() if moves[0] == target]
        if not rows:
            continue
        value = f" = {fmt(e2e[target])} {unit}" if target in e2e else ""
        print(f"  {target}{value}")
        for name in rows:
            lunit, moves = PER_LAYER[name]
            also = f"   (also {', '.join(moves[1:])})" if len(moves) > 1 else ""
            print(f"    {name:<30} {fmt(layers[name]):>16} {lunit}{also}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest size (16 tiles, scale 1, two apps); self-test only")
    ap.add_argument("--forge-mismatch", action="store_true",
                    help="check each run against the other protocol's; self-test only")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    env = {k: v for k, v in os.environ.items() if not PINNED_ENV.match(k)}
    cleared = sorted(set(os.environ) - set(env))
    if cleared:
        print(f"perfbench: cleared {', '.join(cleared)} from the environment")
    binary = build(env)

    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.forge_mismatch:
        cmd.append("--forge-mismatch")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        # An abnormal exit (sim::fatal, a panic, a crash) fails every
        # experiment of the pass.
        sys.stderr.write(proc.stderr)
        planned = re.search(r"(\d+) experiments per pass", proc.stdout)
        n = int(planned.group(1)) if planned else 1
        print(f"perfbench: binary exited with status {proc.returncode}")
        print(json.dumps({"correct": False, "attempted": n, "failed": n, "metrics": {}}))
        sys.exit(1)

    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(out_dir / f"{stem}.report.json") as f:
        report = json.load(f)
    prov = report["provenance"]
    print(f"provenance: host_nproc={prov['host_nproc']} workers={prov['workers']} "
          f"compiler=\"{prov['compiler']}\" build_type={prov['build_type']} "
          f"seed={report['seed']}")
    print(f"simulated-results digest {args.workload} seed {args.seed}: "
          f"{digest(report['results_file'])}")

    e2e, layers = report["end_to_end"], report["per_layer"]
    if args.trace == 0:
        table, units = e2e, {n: u for n, (u, _) in END_TO_END.items()}
        print_end_to_end(e2e)
    else:
        table, units = layers, {n: u for n, (u, _) in PER_LAYER.items()}
        print_per_layer(layers, e2e)
        print(f"spans: {report['spans_file']}")

    failures = list(report["failures"])
    missing = sorted(set(units) - set(table))
    if missing:
        failures.append("metrics not measured: " + ", ".join(missing))
    bad = [n for n in units if n in table and not math.isfinite(table[n])]
    if args.trace == 0:
        bad += [n for n in units if table.get(n) == 0]
    if bad:
        failures.append("metrics not finite or zero: " + ", ".join(bad))
    print(f"operations: {report['attempted']} attempted, {report['failed']} failed")
    for problem in failures:
        print(f"  FAILED {problem}")

    metrics = {n: {"value": table[n], "unit": u} for n, u in units.items() if n in table}
    print(json.dumps({"correct": not failures, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

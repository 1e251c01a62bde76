#!/bin/sh
# replay_check.sh BUILD_DIR [WORK_DIR]
#
# Record/replay smoke (docs/FRONTEND.md). Records a small fig10 sweep
# (fft only, 16 tiles, scale 1) with `--record`, replays the recorded
# widir-mtrace-v1 trace through the full-fidelity frontend, and diffs
# the replayed stats against the recording run's own sweep document
# (bench/replay_trace --diff; host_* and frontend fields excluded).
# Any divergence fails: full-fidelity replay is contractually
# byte-identical to the recorded run.
#
# WORK_DIR keeps the trace and both JSON documents. The Tier-1
# replay_cli CTest runs this script into build/replay_check_out, which
# CI's tier1 job publishes as an artifact.
set -eu

build="${1:?usage: replay_check.sh BUILD_DIR [WORK_DIR]}"
work="${2:-$(mktemp -d /tmp/widir_replay.XXXXXX)}"
mkdir -p "$work"

fig10="$build/bench/fig10_scalability"
replay="$build/bench/replay_trace"
for bin in "$fig10" "$replay"; do
    if [ ! -x "$bin" ]; then
        echo "replay_check: missing binary $bin" >&2
        exit 2
    fi
done

echo "== record: fig10 (fft, 16 tiles, scale 1) -> $work"
WIDIR_BENCH_APPS=fft WIDIR_BENCH_SCALE=1 WIDIR_BENCH_OUT="$work" \
    "$fig10" --tiles 16 --record "$work/traces"

# Spec index 0 of the sweep is results[0] of the document -- the pair
# the --diff below compares.
trace=$(ls "$work"/traces/0_*.mtrace 2>/dev/null | head -n 1)
ref="$work/fig10_scalability.json"
if [ -z "$trace" ] || [ ! -f "$ref" ]; then
    echo "replay_check: recording produced no trace or no JSON" >&2
    exit 2
fi

echo "== replay (full fidelity): $trace"
"$replay" --trace-in "$trace" \
    --out "$work/replay_full.json" --diff "$ref"

echo "replay_check: OK ($work)"

#!/bin/sh
# perf_check.sh BINARY BASELINE_JSON [MIN_SPEEDUP]
# perf_check.sh --rss FIG10_BINARY [SLACK]
#
# Host-perf gate for the event kernel (docs/PERF.md). Runs the
# micro_simkernel benchmark suite, then:
#
#  1. HARD CHECK: for every BM_Legacy<X> / BM_<X> pair in the fresh
#     run, the hybrid kernel must be at least MIN_SPEEDUP (default 2.0)
#     times faster than the legacy replica. Both sides are measured in
#     the same process seconds apart, so the ratio is stable across
#     machines and load -- this is the check that gates.
#
#  2. DRIFT REPORT: compares the fresh items/sec against the committed
#     baseline JSON (bench/BENCH_simkernel.json). Absolute throughput
#     depends on the machine, so large drift only prints a warning and
#     never fails the check.
#
# Registered as the `perf_check` CTest (CONFIGURATIONS perf): run it
# with `ctest -C perf -R perf_check`, never in the default tier-1 run.

set -u

# --- footprint mode: perf_check.sh --rss FIG10_BINARY [SLACK] --------
#
# Runs the fig10 sweep (fft only, scale 1, classic kernel) at 64 and
# 256 tiles in separate processes and reads the `host_peak_rss_kb`
# line each prints (bench/figures.cc reads VmHWM, so no GNU time
# needed). Both runs are serial (--jobs 1): with more workers, both
# protocols' machines can be live at once, and the ratio would depend
# on the host's CPU count and on thread timing.
# Gates on peak RSS growing at most linearly in the tile count: 4x the
# tiles may cost at most 4 * SLACK (default 1.5) times the memory.
# The flat/SoA hot state (docs/PERF.md) is what makes this hold; a
# reintroduced per-line heap allocation fails here before it shows up
# as wall time. Ratio of two same-process measurements, so it is
# stable across machines -- unlike section 2's absolute throughput.
# fft's transpose touches n^2 shared lines for n tiles (16x more at 256
# tiles than at 64), so the simulated footprint itself is not linear:
# as the fixed per-tile host costs fall, that quadratic share weighs
# more and the ratio rises towards it even when nothing regressed.
# Pooling the calendar wheel's event nodes (docs/PERF.md) raised the
# ratio from about 3.7x to 4.0x this way: the wheel's fixed
# per-experiment cost left the 64-tile denominator, while both runs
# got smaller. The bound was left unchanged.
if [ "${1:-}" = "--rss" ]; then
    FIG10=${2:?usage: perf_check.sh --rss FIG10_BINARY [SLACK]}
    SLACK=${3:-1.5}
    # A tree built without the bench targets (e.g. a tests-only CI
    # lane) has no fig10 binary; that is a configuration gap, not a
    # footprint regression, so skip loudly instead of failing.
    if [ ! -x "$FIG10" ]; then
        echo "perf_check: SKIP -- fig10 binary not found at $FIG10" \
             "(build the bench targets to enable the RSS gate)"
        exit 0
    fi
    OUT=$(mktemp -d /tmp/widir_rss.XXXXXX)
    trap 'rm -rf "$OUT"' EXIT
    rss_at() {
        WIDIR_BENCH_APPS=fft WIDIR_BENCH_SCALE=1 WIDIR_BENCH_OUT="$OUT" \
            "$FIG10" --tiles "$1" --jobs 1 |
            sed -n 's/^host_peak_rss_kb \([0-9][0-9]*\)$/\1/p'
    }
    echo "running $FIG10 at 64 and 256 tiles..."
    RSS64=$(rss_at 64)
    RSS256=$(rss_at 256)
    if [ -z "$RSS64" ] || [ -z "$RSS256" ] || [ "$RSS64" = 0 ]; then
        echo "perf_check: no host_peak_rss_kb from $FIG10" >&2
        exit 1
    fi
    awk -v a="$RSS64" -v b="$RSS256" -v s="$SLACK" 'BEGIN {
        r = b / a; lim = 4 * s;
        ok = r <= lim;
        printf "%s  fig10 peak RSS: %d KB @64 tiles -> %d KB @256 tiles (%.2fx, need <= %.1fx)\n",
               ok ? "PASS" : "FAIL", a, b, r, lim;
        exit ok ? 0 : 1 }'
    exit $?
fi

BINARY=${1:?usage: perf_check.sh BINARY BASELINE_JSON [MIN_SPEEDUP]}
BASELINE=${2:?usage: perf_check.sh BINARY BASELINE_JSON [MIN_SPEEDUP]}
MIN_SPEEDUP=${3:-${WIDIR_PERF_MIN_SPEEDUP:-2.0}}

FRESH=$(mktemp /tmp/widir_bench.XXXXXX.json)
trap 'rm -f "$FRESH"' EXIT

echo "running $BINARY (this takes a minute)..."
"$BINARY" --json="$FRESH" --benchmark_min_time=0.5 >/dev/null 2>&1 || {
    echo "perf_check: benchmark run failed" >&2
    exit 1
}

# items_per_second NAME FILE -> value (our own line-per-entry schema).
ips() {
    sed -n "s/.*\"name\": \"$1\", \"items_per_second\": \([^,]*\),.*/\1/p" "$2"
}

fail=0

# --- 1. hybrid vs in-binary legacy replica ---------------------------
for legacy in $(sed -n 's/.*"name": "\(BM_Legacy[A-Za-z]*\)",.*/\1/p' "$FRESH"); do
    new=$(printf '%s' "$legacy" | sed 's/^BM_Legacy/BM_/')
    legacy_ips=$(ips "$legacy" "$FRESH")
    new_ips=$(ips "$new" "$FRESH")
    if [ -z "$legacy_ips" ] || [ -z "$new_ips" ]; then
        echo "perf_check: missing pair for $legacy" >&2
        fail=1
        continue
    fi
    ok=$(awk -v n="$new_ips" -v l="$legacy_ips" -v min="$MIN_SPEEDUP" \
        'BEGIN { r = l > 0 ? n / l : 0;
                 printf "%.2f %d", r, (r >= min) ? 1 : 0 }')
    ratio=${ok% *}
    pass=${ok#* }
    if [ "$pass" = 1 ]; then
        echo "PASS  $new: ${ratio}x over legacy (need >= ${MIN_SPEEDUP}x)"
    else
        echo "FAIL  $new: ${ratio}x over legacy (need >= ${MIN_SPEEDUP}x)" >&2
        fail=1
    fi
done

# --- 2. drift vs committed baseline (warn only) ----------------------
if [ -f "$BASELINE" ]; then
    for name in $(sed -n 's/.*"name": "\(BM_[A-Za-z]*\)",.*/\1/p' "$BASELINE"); do
        base_ips=$(ips "$name" "$BASELINE")
        cur_ips=$(ips "$name" "$FRESH")
        [ -n "$base_ips" ] && [ -n "$cur_ips" ] || continue
        awk -v c="$cur_ips" -v b="$base_ips" -v n="$name" 'BEGIN {
            if (b > 0 && c < 0.5 * b)
                printf "WARN  %s: %.3g items/s vs %.3g in the committed baseline (different machine, or a regression?)\n", n, c, b
        }'
    done
else
    echo "WARN  no committed baseline at $BASELINE (drift report skipped)"
fi

exit $fail

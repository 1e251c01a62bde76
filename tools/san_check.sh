#!/bin/sh
# san_check.sh SOURCE_DIR [BUILD_DIR] [MODE]
#
# Sanitizer gate: configures a dedicated build tree for MODE, builds
# it, and runs ctest inside it. Opt-in configurations (`perf`, `asan`,
# `tsan`) are skipped automatically because a plain `ctest` run never
# selects them.
#
# MODE:
#   asan (default)  -DWIDIR_SANITIZE=ON: AddressSanitizer + UBSan over
#                   the whole tier-1 suite.
#   tsan            -DWIDIR_SANITIZE_THREAD=ON: ThreadSanitizer over
#                   the SweepRunner tests (tests/test_sweep.cc), which
#                   run whole experiments on multi-worker pools -- the
#                   only host threading in the simulator.
#
# Registered as the `san_check` CTest (CONFIGURATIONS asan) and
# `tsan_check` (CONFIGURATIONS tsan): run with
# `ctest -C asan -R san_check` / `ctest -C tsan -R tsan_check`, or
# invoke this script directly. The sanitized trees live next to the
# source by default so repeat runs are incremental.

set -eu

SRC=${1:?usage: san_check.sh SOURCE_DIR [BUILD_DIR] [MODE]}
MODE=${3:-asan}
BUILD=${2:-$SRC/build-$MODE}
JOBS=${WIDIR_SAN_JOBS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 4)}

case "$MODE" in
asan) CONFIG_FLAG=-DWIDIR_SANITIZE=ON ;;
tsan) CONFIG_FLAG=-DWIDIR_SANITIZE_THREAD=ON ;;
*)
    echo "san_check.sh: unknown mode '$MODE' (want asan or tsan)" >&2
    exit 2
    ;;
esac

echo "configuring $MODE build in $BUILD..."
cmake -S "$SRC" -B "$BUILD" "$CONFIG_FLAG" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null

cd "$BUILD"
if [ "$MODE" = tsan ]; then
    echo "building test_sweep ($JOBS jobs)..."
    cmake --build . -j "$JOBS" --target test_sweep >/dev/null
    echo "running the SweepRunner tests under TSan..."
    TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1} \
        ctest --output-on-failure -j "$JOBS" --no-tests=error \
            -R '^SweepRunner\.'
else
    echo "building ($JOBS jobs)..."
    cmake --build . -j "$JOBS" >/dev/null
    echo "running tier-1 tests under ASan+UBSan..."
    # halt_on_error: UBSan findings must fail the run, not just print.
    ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=0} \
    UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1} \
        ctest --output-on-failure -j "$JOBS"
fi

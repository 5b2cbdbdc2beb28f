#!/usr/bin/env bash
# Regenerate every result artifact of the reproduction:
#   test_output.txt   - full ctest run
#   bench_output.txt  - every table/figure/ablation, concatenated
#
# Parallelism: ACP_JOBS controls both the bench binaries' experiment
# runner (each runs its sweep points on a thread pool) and the
# build/ctest -j level. Default: all cores.
#
# Honors the usual scale knobs (REPRO_MEASURE_INSTS, REPRO_WARMUP_INSTS,
# REPRO_WS_BYTES). Per-run results persist in the ./acp_store
# directory (content-addressed on the full-config digest), so
# re-running only simulates points whose configuration changed (delete
# the store directory to force everything).
#
# The two IPC recorders, baseline_ipc and multicore_scaling, are
# skipped: run with no argument they overwrite the committed
# BENCH_event_loop.json and BENCH_multicore.json at whatever scale is
# set. Only tools/record_bench.sh records them, behind its --force
# guard.
#
# --check: instead of regenerating results, build a separate
# sanitizer-instrumented tree (ACP_SANITIZE=address,undefined in
# build-asan/, with libstdc++'s _GLIBCXX_ASSERTIONS so every container
# operator[] is range-checked) and run the full test suite under it.
# Catches memory and UB bugs the plain run would silently survive;
# writes nothing to the result artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--check" ]]; then
    JOBS="${ACP_JOBS:-$(nproc)}"
    GENERATOR=()
    if command -v ninja > /dev/null 2>&1; then
        GENERATOR=(-G Ninja)
    fi
    cmake -B build-asan "${GENERATOR[@]}" \
        -DACP_SANITIZE=address,undefined \
        -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
    cmake --build build-asan -j "$JOBS"
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
    echo "sanitizer check passed (build-asan/, jobs=$JOBS)"
    exit 0
fi

JOBS="${ACP_JOBS:-$(nproc)}"
export ACP_JOBS="$JOBS"

GENERATOR=()
if command -v ninja > /dev/null 2>&1; then
    GENERATOR=(-G Ninja)
fi

cmake -B build "${GENERATOR[@]}"
cmake --build build -j "$JOBS"

ctest --test-dir build -j "$JOBS" 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
    case "$(basename "$b")" in
        baseline_ipc|multicore_scaling) continue ;;
    esac
    echo "===== $b =====" | tee -a bench_output.txt
    "$b" 2>/dev/null | tee -a bench_output.txt
    echo | tee -a bench_output.txt
done

echo "wrote test_output.txt and bench_output.txt (jobs=$JOBS)"

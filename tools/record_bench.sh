#!/usr/bin/env bash
# Record the performance-trajectory baseline: build, then run the
# profiled fig7 workload x policy sweep (bench/baseline_ipc) and write
# BENCH_event_loop.json at the repo root. An optional argument names a
# different output file, and --bench=NAME records a different bench
# binary, e.g.
#
#   tools/record_bench.sh BENCH_multicore.json --bench=multicore_scaling
#
# The committed BENCH_event_loop.json is the reference point future
# changes diff against (CI's perf gate runs tools/bench_diff.py on
# it) - IPC per (workload, policy) plus the per-segment demand-path
# means that say where the cycles went. Update procedure after an
# intentional change to the simulated numbers:
#
#   tools/record_bench.sh BENCH_event_loop.json --force
#   git add BENCH_event_loop.json
#   git commit    # alongside the change that moved the numbers
#
# Profiled runs are uncacheable by design, so every number here is a
# fresh measurement (the shared ./acp_store result store is neither
# read nor written). Honors ACP_JOBS and the usual scale knobs
# (REPRO_MEASURE_INSTS, REPRO_WARMUP_INSTS, REPRO_WS_BYTES); the
# committed baseline must be recorded at the default scale.
#
# The written JSON embeds a provenance manifest (git SHA, build type,
# compiler, host) so a committed baseline says what produced it.
# An existing output file is never overwritten without --force:
# committed baselines are reference points, and clobbering one by
# accident silently moves the goalposts for every future diff.
set -euo pipefail
cd "$(dirname "$0")/.."

FORCE=0
BENCH=baseline_ipc
ARGS=()
for arg in "$@"; do
    case "$arg" in
        --force) FORCE=1 ;;
        --bench=*) BENCH="${arg#--bench=}" ;;
        *) ARGS+=("$arg") ;;
    esac
done

OUT="${ARGS[0]:-BENCH_event_loop.json}"
JOBS="${ACP_JOBS:-$(nproc)}"
export ACP_JOBS="$JOBS"

if [[ -e "$OUT" && "$FORCE" -ne 1 ]]; then
    echo "error: $OUT already exists; re-run with --force to replace it" >&2
    echo "       (e.g. tools/record_bench.sh $OUT --force)" >&2
    exit 1
fi

GENERATOR=()
if command -v ninja > /dev/null 2>&1; then
    GENERATOR=(-G Ninja)
fi

cmake -B build "${GENERATOR[@]}"
cmake --build build -j "$JOBS" --target "$BENCH"

"build/bench/$BENCH" "$OUT"

echo "recorded $OUT (jobs=$JOBS)"

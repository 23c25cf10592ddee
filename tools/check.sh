#!/usr/bin/env bash
# One-command pre-merge gate for the TAMP repo.
#
#   tools/check.sh                 Release build + ctest, the bench metrics
#                                  gate (micro benches, stream and Fig. 7
#                                  vs bench/baselines/),
#                                  clang-tidy (when installed), ASan+UBSan
#                                  build + ctest, a TSan build + ctest over
#                                  the concurrency tests at TAMP_THREADS=4,
#                                  and the tamp_analyze static-analysis
#                                  gate, and the repository benchmark's
#                                  unit tests (perfbench/run.py
#                                  --self-test). Exits nonzero on the first
#                                  failure.
#   tools/check.sh --analyze-only  Only the analyze gate (and its
#                                  self-tests). --lint-only is a legacy
#                                  alias.
#
# Options:
#   --analyze-binary PATH  Use an already-built tamp_analyze instead of
#                          building one (used by the ctest smoke entry).
#                          --lint-binary is a legacy alias.
#   --jobs N               Parallel build jobs (default: nproc).
#
# When clang-tidy is on PATH, the Release stage also runs it with the repo
# .clang-tidy config over the library sources (advisory unless
# TAMP_TIDY_WERROR=1).

set -u -o pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
ANALYZE_ONLY=0
ANALYZE_BINARY=""

while [ $# -gt 0 ]; do
  case "$1" in
    --analyze-only|--lint-only) ANALYZE_ONLY=1 ;;
    --analyze-binary|--lint-binary) ANALYZE_BINARY="$2"; shift ;;
    --jobs) JOBS="$2"; shift ;;
    *) echo "check.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
  shift
done

FAILURES=0

run_stage() {
  local name="$1"; shift
  echo "==> [$name] $*"
  if "$@"; then
    echo "==> [$name] OK"
  else
    echo "==> [$name] FAILED" >&2
    FAILURES=$((FAILURES + 1))
    return 1
  fi
}

build_analyze_binary() {
  local dir="$REPO_ROOT/build-check-analyze"
  cmake -B "$dir" -S "$REPO_ROOT" \
        -DTAMP_BUILD_TESTS=OFF -DTAMP_BUILD_BENCHMARKS=OFF \
        -DTAMP_BUILD_EXAMPLES=OFF >/dev/null \
    && cmake --build "$dir" --target tamp_analyze -j "$JOBS" >/dev/null \
    && ANALYZE_BINARY="$dir/tools/tamp_analyze"
}

analyze_stage() {
  if [ -z "$ANALYZE_BINARY" ]; then
    run_stage "analyze-build" build_analyze_binary || return 1
  fi
  run_stage "analyze" "$ANALYZE_BINARY" "$REPO_ROOT" || return 1
  run_stage "analyze-self-test" "$ANALYZE_BINARY" --self-test all \
            "$REPO_ROOT" || return 1
}

full_build_stage() {
  local name="$1" dir="$2"; shift 2
  run_stage "$name-configure" cmake -B "$dir" -S "$REPO_ROOT" \
            -DTAMP_WERROR=ON "$@" || return 1
  run_stage "$name-build" cmake --build "$dir" -j "$JOBS" || return 1
  run_stage "$name-ctest" ctest --test-dir "$dir" --output-on-failure \
            -j "$JOBS" || return 1
}

tsan_stage() {
  local dir="$REPO_ROOT/build-check-tsan"
  run_stage "tsan-configure" cmake -B "$dir" -S "$REPO_ROOT" \
            -DTAMP_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DTAMP_SANITIZE=thread || return 1
  run_stage "tsan-build" cmake --build "$dir" -j "$JOBS" || return 1
  # Force a multi-threaded pool so TSan actually observes interleavings;
  # with the default TAMP_THREADS the single-core CI box would take the
  # serial path and the stage would vacuously pass.
  run_stage "tsan-ctest" env TAMP_THREADS=4 ctest --test-dir "$dir" \
            --output-on-failure -j "$JOBS" || return 1
}

# Metrics-regression gate: re-emit each micro bench target's
# BENCH_micro_*.json from the release build and diff its deterministic
# work-count metrics against the committed bench/baselines/ copy. Timing
# ("stages", "_s" keys, "threads") is advisory in tamp_bench_compare, so
# this is machine-independent; min_time stays tiny because only the counts
# are gated. The committed 1- vs 4-thread table JSONs are cross-compared
# too, pinning the bit-identical-across-threads contract, and the Fig. 7
# bench re-runs against its committed report.
bench_gate_stage() {
  local dir="$REPO_ROOT/build-check-release"
  local compare="$dir/tools/tamp_bench_compare"
  local baselines="$REPO_ROOT/bench/baselines"
  local target
  for target in micro_matching micro_nn micro_similarity micro_cluster \
                micro_candidates; do
    run_stage "bench-run-$target" env TAMP_BENCH_JSON_DIR="$dir" \
              "$dir/bench/bench_$target" --benchmark_min_time=0.01 \
              || return 1
    run_stage "bench-gate-$target" "$compare" \
              "$baselines/BENCH_$target.json" \
              "$dir/BENCH_$target.json" || return 1
  done
  # The event-driven simulator's headline bench: every (dataset, scenario)
  # workload spec through the event core. Its per-spec event counts are
  # pure functions of the workload seeds, so they gate bitwise; the
  # events/second figures (`*_s` / `events_per_s` keys) stay advisory.
  run_stage "bench-run-stream" env TAMP_BENCH_JSON_DIR="$dir" \
            "$dir/bench/bench_stream" || return 1
  run_stage "bench-gate-stream" "$compare" \
            "$baselines/BENCH_stream.json" \
            "$dir/BENCH_stream.json" || return 1
  run_stage "bench-gate-threads-invariance" "$compare" \
            "$baselines/BENCH_table4_cluster_ablation.threads1.json" \
            "$baselines/BENCH_table4_cluster_ablation.threads4.json" \
            || return 1
  # The paper's Fig. 7 sweep end to end (GTTAML training with TA and MSE
  # loss at hidden_dim 16, then every method's replay): its quality
  # metrics and work counters gate bitwise against the committed run.
  run_stage "bench-run-fig7" env TAMP_BENCH_JSON_DIR="$dir" \
            "$dir/bench/bench_fig7_tasks_porto" --threads=1 || return 1
  run_stage "bench-gate-fig7" "$compare" \
            "$baselines/BENCH_fig7_tasks_porto.json" \
            "$dir/BENCH_fig7_tasks_porto.json" || return 1
}

# The repository benchmark's own unit tests (stats helpers, self time,
# checks, demand draws). run.py builds them from this checkout into
# .bench_build/perfbench.
perfbench_self_test_stage() {
  run_stage "perfbench-self-test" python3 "$REPO_ROOT/perfbench/run.py" \
            --self-test || return 1
}

clang_tidy_stage() {
  command -v clang-tidy >/dev/null 2>&1 || {
    echo "==> [clang-tidy] WARNING: clang-tidy not on PATH — the tidy gate" \
         "(bugprone-*/concurrency-*/performance-*) DID NOT RUN; install" \
         "clang-tidy to close this gap" >&2
    return 0
  }
  local dir="$REPO_ROOT/build-check-release"
  local files
  files=$(find "$REPO_ROOT/src" -name '*.cc' | sort)
  echo "==> [clang-tidy] running over src/ with $(clang-tidy --version \
       | grep -o 'version [0-9.]*' | head -1)"
  # shellcheck disable=SC2086
  if clang-tidy -p "$dir" $files --quiet; then
    echo "==> [clang-tidy] OK"
  else
    echo "==> [clang-tidy] findings reported" >&2
    if [ "${TAMP_TIDY_WERROR:-0}" = "1" ]; then
      FAILURES=$((FAILURES + 1))
    fi
  fi
}

if [ "$ANALYZE_ONLY" = "1" ]; then
  analyze_stage
else
  full_build_stage "release" "$REPO_ROOT/build-check-release" \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  bench_gate_stage
  perfbench_self_test_stage
  clang_tidy_stage
  full_build_stage "asan-ubsan" "$REPO_ROOT/build-check-asan" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTAMP_SANITIZE=address,undefined
  tsan_stage
  analyze_stage
fi

if [ "$FAILURES" -gt 0 ]; then
  echo "check.sh: $FAILURES stage(s) failed" >&2
  exit 1
fi
echo "check.sh: all stages passed"

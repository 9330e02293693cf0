#!/usr/bin/env bash
# Tier-1 gate plus the sanitizer passes.
#
#   scripts/ci.sh          # full: tier-1, trace lane, TSan engine, ASan+UBSan
#   scripts/ci.sh tier1    # only the tier-1 build + full test suite
#   scripts/ci.sh trace    # only the trace suite (`ctest -L trace`), a
#                          # sweep --trace-dir smoke run and one ambb_trace
#                          # replay
#   scripts/ci.sh tsan     # only the TSan build + `ctest -L "engine|ext|arena|sched"`
#   scripts/ci.sh asan     # only the ASan+UBSan build + `ctest -L "adversary|engine|ext|arena|sched"`
#   scripts/ci.sh perf_smoke  # regenerate BENCH_f2_scaling.json and
#                             # BENCH_f6_payload.json from their spec
#                             # files and diff them against the committed
#                             # ones
#
# The TSan stage rebuilds into build-tsan/ (see CMakePresets.json) and runs
# exactly the engine-labelled tests: they exercise the worker pool with
# real protocol drivers, so a data race anywhere on the job path —
# engine, sweep expansion, registry, simulator — trips it.
#
# The trace stage runs the TraceSink suite (golden JSONL, pure-observer
# and --jobs determinism checks, the ambb_trace --eps range check) and
# then smoke-tests the end-to-end surface: ambb_sweep --trace-dir must
# write one trace per job and exit zero, and one ambb_trace replay must
# exit zero and print its cache line (digest and MAC memo hits, misses
# and evictions, then the per-record verdict hits and misses). The
# JsonlSink-under-the-worker-pool case is additionally covered by the
# TSan stage, because test_trace_determinism carries the engine label
# too.
#
# The ASan+UBSan stage rebuilds into build-asan/ and runs the adversary
# and engine suites: the fault-injection paths (after-the-fact erasure,
# mid-run actor replacement, staggered-release buffers) are exactly where
# a stale Delivery pointer or index overflow would hide, and the
# fuzz-schedule tests drive them through hundreds of random compositions.
#
# Both sanitizer stages also take the ext suite (erasure coder, Merkle
# proofs, the long-message extension driver): GF(2^8) table indexing and
# the nested base-family simulation inside each ext cell are prime
# out-of-bounds / shared-state candidates. The arena suite (per-round
# arena, interning caches — DESIGN.md §14) rides both sanitizer lanes
# too: raw bump-pointer memory and thread_local caches under the worker
# pool are exactly what ASan/TSan are for. test_alloc_hotpath stays out
# of the sanitizer lanes by design (the sanitizer allocators bypass the
# counting operator-new hooks). The sched suite (event-queue scheduler,
# delay policies, timing faults — DESIGN.md §16) rides both sanitizer
# lanes too: the pending-delivery queue holds payload copies across
# rounds and its registry runs execute on the engine worker pool, exactly
# the lifetime + threading mix the sanitizers exist to check.
#
# The perf_smoke stage is the measurement-drift gate: it builds only
# ambb_sweep, regenerates both committed BENCH files from their spec
# files (tools/specs/f2_scaling.spec, all 23 rows including the
# minute-scale alg4 n = 512 run, and tools/specs/payload_scaling.spec,
# the only committed file that runs the extension driver) and diffs
# every measurement field against the committed file by run label
# (scripts/check_bench_fields.py; the label sets must be equal).
# Wall-clock and ns_* fields are excluded: the gate catches semantic
# drift, not machine noise.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
stage="${1:-all}"

tier1() {
  echo "== tier-1: configure + build =="
  cmake --preset default
  cmake --build --preset default -j "$jobs"
  echo "== tier-1: ctest =="
  ctest --preset default -j "$jobs"
}

trace() {
  echo "== trace: configure + build =="
  cmake --preset default
  cmake --build --preset default -j "$jobs"
  echo "== trace: ctest -L trace =="
  ctest --preset trace -j "$jobs"
  echo "== trace: sweep --trace-dir smoke =="
  local dir
  dir="$(mktemp -d)"
  (cd "$dir" && "$OLDPWD/build/tools/ambb_sweep" \
      --spec "$OLDPWD/tools/specs/f2_scaling.spec" \
      --filter alg4 --trace-dir traces)
  ls "$dir"/traces/*.jsonl >/dev/null
  echo "== trace: payload-scaling sweep smoke =="
  (cd "$dir" && "$OLDPWD/build/tools/ambb_sweep" \
      --spec "$OLDPWD/tools/specs/payload_scaling.spec" \
      --filter ext:linear/ --out payload_smoke)
  echo "== trace: ambb_trace replay smoke =="
  build/tools/ambb_trace --protocol linear --adversary mixed --n 16 \
      --slots 8 > "$dir/replay.txt"
  grep -q '^caches: digest .*; mac .*; verdict ' "$dir/replay.txt" || {
    echo "ambb_trace printed no cache line" >&2
    exit 1
  }
  rm -rf "$dir"
}

tsan() {
  echo "== tsan: configure + build =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  echo "== tsan: ctest -L 'engine|ext|arena|sched' =="
  # halt_on_error promotes any race report to a test failure.
  TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan -j "$jobs"
}

asan() {
  echo "== asan: configure + build =="
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  echo "== asan: ctest -L 'adversary|engine|ext|arena|sched' =="
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=0" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --preset asan -j "$jobs"
}

perf_smoke() {
  echo "== perf_smoke: configure + build =="
  cmake --preset default
  cmake --build --preset default -j "$jobs" --target ambb_sweep
  local dir
  dir="$(mktemp -d)"
  echo "== perf_smoke: f2_scaling.spec sweep =="
  (cd "$dir" && "$OLDPWD/build/tools/ambb_sweep" \
      --spec "$OLDPWD/tools/specs/f2_scaling.spec" --out f2_scaling)
  echo "== perf_smoke: payload_scaling.spec sweep =="
  (cd "$dir" && "$OLDPWD/build/tools/ambb_sweep" \
      --spec "$OLDPWD/tools/specs/payload_scaling.spec" --out f6_payload)
  echo "== perf_smoke: measurement-field diff vs committed goldens =="
  python3 scripts/check_bench_fields.py \
      BENCH_f2_scaling.json "$dir/BENCH_f2_scaling.json"
  python3 scripts/check_bench_fields.py \
      BENCH_f6_payload.json "$dir/BENCH_f6_payload.json"
  rm -rf "$dir"
}

case "$stage" in
  tier1) tier1 ;;
  trace) trace ;;
  tsan) tsan ;;
  asan) asan ;;
  perf_smoke) perf_smoke ;;
  all)
    tier1
    trace
    tsan
    asan
    perf_smoke
    ;;
  *)
    echo "usage: $0 [tier1|trace|tsan|asan|perf_smoke|all]" >&2
    exit 2
    ;;
esac

echo "ci: OK ($stage)"

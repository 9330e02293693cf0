#!/usr/bin/env bash
# Tier-1 gate plus the sanitizer passes.
#
#   scripts/ci.sh          # full: tier-1, trace lane, TSan engine, ASan+UBSan,
#                          # perf_smoke, unused
#   scripts/ci.sh tier1    # only the tier-1 build + full test suite
#   scripts/ci.sh trace    # only the trace suite (`ctest -L trace`), a
#                          # sweep --trace-dir smoke run and two ambb_trace
#                          # replays
#   scripts/ci.sh tsan     # only the TSan build + `ctest -L "engine|ext|hotpath|sched"`
#   scripts/ci.sh asan     # only the ASan+UBSan build + `ctest -L "adversary|engine|ext|hotpath|sched"`
#   scripts/ci.sh perf_smoke  # regenerate BENCH_f2_scaling.json and
#                             # BENCH_f6_payload.json from their spec
#                             # files and diff them against the committed
#                             # ones
#   scripts/ci.sh unused   # only the dead-code gate: no src/ function
#                          # outside the allowlist may be unreachable
#                          # from every shipped binary
#
# The TSan stage rebuilds into build-tsan/ (see CMakePresets.json) and runs
# exactly the engine-labelled tests: they exercise the worker pool with
# real protocol drivers, so a data race anywhere on the job path —
# engine, sweep expansion, registry, simulator — trips it.
#
# The trace stage runs the TraceSink suite (golden JSONL, pure-observer
# and --jobs determinism checks, the ambb_trace --eps range check) and
# then smoke-tests the end-to-end surface: ambb_sweep --trace-dir must
# write one trace per job and exit zero, and two ambb_trace replays must
# exit zero and print their cache lines (digest and MAC memo hits, misses
# and evictions, then the per-record verdict hits and misses); the Alg-4
# replay must also print its peak-RSS memory line; the
# Alg-4 replay's totals line must split its rounds into executed and
# elided ones that add up, and the Alg-5.2 replay must read non-zero
# verdict hits. The
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
# out-of-bounds / shared-state candidates. The hotpath suite (the
# shared and own inbox buffers, interning caches — DESIGN.md §14, §19)
# rides both sanitizer lanes too: inbox entries pointing into last
# round's records and thread_local caches under the worker pool are
# exactly what ASan/TSan are for. test_alloc_hotpath stays out
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
#
# The unused stage is the dead-code gate (DESIGN.md §21). It builds every
# shipped binary into build-unused/: the tools and the examples from the
# top-level project, and perfbench standalone from its own
# perfbench/CMakeLists.txt. The build uses -O0 -ffunction-sections
# -fkeep-inline-functions and links with -Wl,--gc-sections, so every
# inline function is emitted, none vanishes into an inlined caller, and
# the linker drops every function no binary reaches. It also compiles
# scripts/unused_instances.cpp, which includes every src/ header and
# instantiates the simulator's class templates for each protocol family,
# so header-inline functions and template members that no src/ file uses
# are defined somewhere too. nm then lists every ambb:: function that the
# src/ archives or that unit define and that none of those binaries
# keeps. A template member counts as kept when any family's instance of
# it is, and weak constructors and destructors (implicit or inline
# special members) are skipped. Each function left fails the stage
# unless unused_allow below names it with its reason. An allowlist entry
# that is no longer unused fails too, so the list stays exact. The stage
# also fails first when the unit lacks a src/ header or a family that
# declares `using Sim = Simulation<Msg, CostPolicy>`. Lambdas are local
# entities (mangled _ZZ...) and std:: instantiations are not ambb::
# functions; neither is checked. A virtual function stays in any binary
# whose vtable names it, called or not; DESIGN.md §21 records that each
# one has a caller today.
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
  grep -q '^memory: peak RSS [0-9][0-9.]* MiB; round buffers [0-9][0-9.]* MiB$' \
      "$dir/replay.txt" || {
    echo "ambb_trace printed no memory line" >&2
    exit 1
  }
  # Every round is either executed (one RoundStats row) or elided.
  local totals rounds executed elided
  totals='^totals: .* over \([0-9]*\) rounds: \([0-9]*\) executed'
  totals+=' ([0-9]* mail-only), \([0-9]*\) elided$'
  read -r rounds executed elided \
      < <(sed -n "s/$totals/\1 \2 \3/p" "$dir/replay.txt") || true
  if [ -z "${elided:-}" ] || [ $((executed + elided)) -ne "$rounds" ]; then
    echo "ambb_trace totals line missing or executed + elided != rounds" >&2
    exit 1
  fi
  # Alg-4's accusations, proposals, certificates and commit- and
  # corrupt-proofs, and Alg-5.2's accusations and votes, are multicasts or
  # group forwards: under lock-step their recipients must share one
  # verdict per record (DESIGN.md §19, §22), so both replays need hits.
  build/tools/ambb_trace --protocol quadratic --adversary silent --n 16 \
      --f 8 --slots 8 > "$dir/replay_quad.txt"
  local replay
  for replay in replay replay_quad; do
    grep -q '^caches: .*; verdict [1-9][0-9]* hits' "$dir/$replay.txt" || {
      echo "ambb_trace $replay shows no per-record verdict hits" >&2
      exit 1
    }
  done
  # Alg-5.2's honest forwards repeat one payload: honest readers of the
  # shared stream must skip those exact repeats (DESIGN.md §19).
  grep -q '^caches: .*; repeats [1-9][0-9]* of [0-9]* multicasts$' \
      "$dir/replay_quad.txt" || {
    echo "ambb_trace replay_quad shows no elided repeats" >&2
    exit 1
  }
  rm -rf "$dir"
}

tsan() {
  echo "== tsan: configure + build =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  echo "== tsan: ctest -L 'engine|ext|hotpath|sched' =="
  # halt_on_error promotes any race report to a test failure.
  TSAN_OPTIONS="halt_on_error=1" ctest --preset tsan -j "$jobs"
}

asan() {
  echo "== asan: configure + build =="
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  echo "== asan: ctest -L 'adversary|engine|ext|hotpath|sched' =="
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

# src/ functions that no shipped binary keeps but a test needs as an
# oracle, a reference or a printer. Exact demangled signatures, with
# each family's message and cost types printed as Msg and CostPolicy;
# one reason each (DESIGN.md §21).
unused_allow=(
  # TrustCast oracle: test_trustcast checks G_u is a subgraph of G_v.
  "ambb::TrustGraph::is_subgraph_of(ambb::TrustGraph const&) const"
  # TrustCast oracle: test_trust_graph/test_trustcast read single edges.
  "ambb::TrustGraph::has_edge(unsigned int, unsigned int) const"
  # TrustCast oracle: edge counts before and after removal and pruning.
  "ambb::TrustGraph::edge_count() const"
  # TrustCast oracle: the vertex set that pruning keeps.
  "ambb::TrustGraph::vertex_count() const"
  # Expander oracle: test_expander checks the edge count of the graph.
  "ambb::Graph::edge_count() const"
  # Expander oracle: test_expander checks the degree is constant in n.
  "ambb::Graph::max_degree() const"
  # Expander oracle: test_expander checks the spectral gap.
  "ambb::second_eigenvalue_estimate(ambb::Graph const&, ambb::Rng&, int)"
  # Reference: test_digest_cache checks finalize_block against resuming.
  "ambb::Sha256::Sha256(ambb::Sha256Midstate const&)"
  # Printer: the net-policy spec must print back to what parsed it.
  "ambb::NetPolicy::spec[abi:cxx11]() const"
  # Printer: prints a fault schedule, for sched: repros and test output.
  "ambb::adversary::describe[abi:cxx11](ambb::adversary::FaultSchedule const&)"
  # Oracle access: test_trustcast and test_linear_invariants read the
  # live nodes' state through it.
  "ambb::Simulation<Msg, CostPolicy>::actor(unsigned int) const"
  # Alg-4 oracle: no honest node ever holds a corrupt-proof on an honest
  # node (Lemma 3), and silent leaders are convicted everywhere.
  "ambb::linear::LinearNode::has_corrupt_proof(unsigned int) const"
  # Alg-4 oracle: a node's accusation knowledge only grows.
  "ambb::linear::LinearNode::seen_accuse(unsigned int, unsigned int) const"
  # Alg-4 oracle: an honest node's query2 emissions stay within f.
  "ambb::linear::LinearNode::expensive_epochs() const"
)

unused() {
  echo "== unused: the instantiation unit covers every header and family =="
  local unit=scripts/unused_instances.cpp
  local missing=() h ns
  for h in $(cd src && find . -name '*.hpp' | sed 's|^\./||' | sort); do
    grep -qxF "#include \"$h\"" "$unit" || missing+=("#include \"$h\"")
  done
  for ns in $(awk 'FNR == 1 { ns = "" }
                   /^namespace ambb::[a-z_]+ \{/ { ns = substr($2, 7) }
                   /^using Sim = Simulation<Msg, CostPolicy>;/ { print ns }' \
                $(find src -name '*.hpp' | sort)); do
    grep -qxF "AMBB_GATE_FAMILY($ns)" "$unit" || missing+=("AMBB_GATE_FAMILY($ns)")
  done
  if (( ${#missing[@]} )); then
    echo "$unit lacks lines for src/ code it must cover:" >&2
    printf '  %s\n' "${missing[@]}" >&2
    return 1
  fi
  echo "== unused: configure + build at -O0 with --gc-sections =="
  local out=build-unused
  local cxxflags="-O0 -ffunction-sections -fkeep-inline-functions"
  local flags=(-G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug
               "-DCMAKE_CXX_FLAGS=$cxxflags"
               "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
  cmake -S . -B "$out/main" "${flags[@]}"
  make -C "$out/main/tools" --no-print-directory -j "$jobs"
  make -C "$out/main/examples" --no-print-directory -j "$jobs"
  cmake -S perfbench -B "$out/perfbench" "${flags[@]}"
  cmake --build "$out/perfbench" -j "$jobs" --target perfbench
  local cxx
  cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$out/main/CMakeCache.txt")"
  # shellcheck disable=SC2086  # $cxxflags is a list of flags
  "$cxx" -std=c++20 $cxxflags -Wall -Wextra -Werror -Isrc \
      -c "$unit" -o "$out/unused_instances.o"
  echo "== unused: src/ functions that no shipped binary keeps =="
  local bins
  mapfile -t bins < <(find "$out/main/tools" "$out/main/examples" \
      -maxdepth 1 -type f -perm -u+x | sort)
  bins+=("$out/perfbench/perfbench")
  local dir
  dir="$(mktemp -d)"
  local -x LC_ALL=C
  # A template member counts as kept when any family's instantiation of
  # it is: a family's message and cost types, as template or function
  # arguments, print as plain Msg and CostPolicy.
  local family='s/([<(,] ?)ambb::[a-z_]+::(Msg|CostPolicy)\b/\1\2/g'
  # Weak constructors and destructors are skipped: they are inline or
  # implicitly defined special members, such as linear::Msg::Msg().
  nm --defined-only "$out"/main/src/*.a "$out/unused_instances.o" \
      2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN[rVKRO]*4ambb/ { print $2, $3 }' |
    c++filt | sed -E "$family" |
    grep -Ev '^[Ww] (.*::)?([A-Za-z_][A-Za-z0-9_]*)(<.*>)?::~?\2\(' |
    cut -d' ' -f2- | sort -u > "$dir/defined.txt"
  nm --defined-only "${bins[@]}" |
    awk '$2 ~ /^[TtWw]$/ { print $3 }' | c++filt | sed -E "$family" |
    sort -u > "$dir/kept.txt"
  comm -23 "$dir/defined.txt" "$dir/kept.txt" > "$dir/unused.txt"
  printf '%s\n' "${unused_allow[@]}" | sort -u > "$dir/allow.txt"
  comm -23 "$dir/unused.txt" "$dir/allow.txt" > "$dir/unexpected.txt"
  comm -13 "$dir/unused.txt" "$dir/allow.txt" > "$dir/stale.txt"
  echo "${#bins[@]} binaries keep $(wc -l < "$dir/kept.txt") functions;" \
       "$(wc -l < "$dir/unused.txt") src/ functions are kept by none"
  local status=0
  if [[ -s "$dir/unexpected.txt" ]]; then
    echo "src/ functions that no shipped binary keeps; delete them, or" \
         "allowlist one a test needs, with its reason:" >&2
    sed 's/^/  /' "$dir/unexpected.txt" >&2
    status=1
  fi
  if [[ -s "$dir/stale.txt" ]]; then
    echo "allowlist entries that are kept by a binary or no longer exist:" >&2
    sed 's/^/  /' "$dir/stale.txt" >&2
    status=1
  fi
  rm -rf "$dir"
  return "$status"
}

case "$stage" in
  tier1) tier1 ;;
  trace) trace ;;
  tsan) tsan ;;
  asan) asan ;;
  perf_smoke) perf_smoke ;;
  unused) unused ;;
  all)
    tier1
    trace
    tsan
    asan
    perf_smoke
    unused
    ;;
  *)
    echo "usage: $0 [tier1|trace|tsan|asan|perf_smoke|unused|all]" >&2
    exit 2
    ;;
esac

echo "ci: OK ($stage)"

#!/usr/bin/env bash
# CI entry point — three-job build matrix with per-job logs:
#
#   release   Release, -DXPUF_WERROR=ON, full ctest (incl. `-L lint`:
#             the semantic engine over the tree, the fixture suite
#             tests/test_lint_semantic, and .clang-tidy validation)
#   lint      no build tree tracked by git (build/, build-*/, build_*/,
#             .bench_build/); xpuf_lint --format json artifact (bench_out/ci/
#             lint_report.json) gated by tools/check_lint_baseline.py:
#             zero violations, per-rule suppression counts within the
#             shrink-only budget in tools/lint_baseline.json
#   fanalyzer GCC -fanalyzer sweep of src/net/ + src/common/ (the two
#             subsystems driven by external state machines) plus the
#             lockstep oracle engine and its pipe/fault transports
#             (tests/oracles/); any -Wanalyzer- diagnostic besides the
#             known-FP uninitialized-value checker fails the job
#   bench     bench_scan_throughput A/B (the per-cell stage-walk oracle vs
#             the batched scan kernel) and bench_enroll_throughput A/B (the
#             whole-scan enroll_reference oracle vs streaming enrollment,
#             incl. the fixed-memory RSS assertion); both binaries assert
#             bit-identity, the gate checks each timing JSON and that the
#             library side has not regressed —
#             tools/check_bench_regression.py)
#   store     bench_db_scale at CI scale (sharded enrollment store: binary
#             log enrollment, LRU-bounded authentication with the in-run
#             flat-RSS and zero-metrics-drift audits, cold-replay recovery,
#             compaction); the gate checks the timing JSON and that the
#             LRU-cached serve path has not regressed behind cold replay
#   auth      bench_auth_throughput at CI scale (packed screening kernel vs
#             the reference walk, pooled issuance vs live screening —
#             both asserted bit-identical in-run, with the zero-drift and
#             flat-RSS audits in the exit code); gates: auth.*/db.mmap_*
#             counter schema (--expect-auth) and both A/B timing pairs
#             (the screening pair at a 5.0x floor)
#   scalar    -DXPUF_BATCH_SIMD=OFF build (build-scalar/): the portable
#             sign-flip and tile kernels held to the same bit-identity
#             suites (test_screening, test_linear, test_selection,
#             test_database, and test_streaming + test_tester, whose scans
#             run the one cell kernel over the portable tile kernel)
#   metrics   one bench run with --metrics-out, then a JSON schema check of
#             the snapshot (tools/check_metrics_schema.py): counters/gauges/
#             histograms/spans shape, nonzero selection cost, nonzero replay
#             rejections from the re-seeded second authentication
#   service   bench_service_load over a faulty wire through the lockstep
#             oracle engine (tests/oracles/service.hpp; exit code is the
#             zero-drift audit), net.* counter schema check (--expect-net),
#             and tests/test_service (the oracle engine's suite) under TSan
#   service-socket
#             bench_service_load --transport socket: the epoll event-loop
#             engine over 1000 concurrent localhost connections, reconciled
#             bit-for-bit against the lockstep oracle engine
#             (tests/oracles/service.hpp) plus a starved-queue
#             overload phase (exit code is the audit); net.async.* schema
#             check (--expect-net-socket), lockstep-vs-socket timing gate,
#             and tests/test_async_service under TSan
#   asan      ASan+UBSan RelWithDebInfo, full test suite
#   tsan      TSan RelWithDebInfo, parallel-layer tests
#             (tests/test_parallel.cpp hammers the pool with 1/2/8-lane
#             configurations, so TSan sees every synchronization path of
#             common/parallel.cpp and the staged-buffer commits in the
#             scan/attack/GEMM code)
#
# plus a clang-tidy pass (tools/tidy.sh — skips cleanly when LLVM is absent).
# Every job tees its output to bench_out/ci/<job>.log so a red matrix can be
# triaged without re-running.
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 2)"
logdir="bench_out/ci"
mkdir -p "${logdir}"

run_job() {
  local name="$1"
  shift
  echo "== ${name} =="
  if "$@" >"${logdir}/${name}.log" 2>&1; then
    echo "   ok (log: ${logdir}/${name}.log)"
  else
    echo "   FAILED — tail of ${logdir}/${name}.log:" >&2
    tail -n 40 "${logdir}/${name}.log" >&2
    return 1
  fi
}

# NOTE: each job chains with && — `set -e` is suspended inside functions
# called from an `if` condition, so a plain sequence would keep going (and
# e.g. run ctest on a half-built tree) after a failed build step.
release_job() {
  cmake -B "${prefix}" -S . -DCMAKE_BUILD_TYPE=Release -DXPUF_WERROR=ON &&
    cmake --build "${prefix}" -j "${jobs}" &&
    ctest --test-dir "${prefix}" --output-on-failure -j "${jobs}"
}

asan_job() {
  cmake -B "${prefix}-asan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DXPUF_SANITIZE=address,undefined \
    -DXPUF_WERROR=ON \
    -DXPUF_BUILD_BENCHMARKS=OFF \
    -DXPUF_BUILD_EXAMPLES=OFF &&
    cmake --build "${prefix}-asan" -j "${jobs}" &&
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      ctest --test-dir "${prefix}-asan" --output-on-failure -j "${jobs}"
}

tsan_configure() {
  cmake -B "${prefix}-tsan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DXPUF_SANITIZE=thread \
    -DXPUF_WERROR=ON \
    -DXPUF_BUILD_BENCHMARKS=OFF \
    -DXPUF_BUILD_EXAMPLES=OFF
}

tsan_job() {
  tsan_configure &&
    cmake --build "${prefix}-tsan" -j "${jobs}" --target test_parallel &&
    "${prefix}-tsan/tests/test_parallel"
}

# Service layer end-to-end: the Release load bench over a faulty wire,
# driven by the lockstep oracle engine of tests/oracles/ (its exit code IS
# the zero-drift audit), the net.* schema check on its snapshot, and the
# oracle engine's test suite under TSan (shard workers + sharded counters).
service_job() {
  "${prefix}/bench/bench_service_load" \
    --devices 24 --threads 2 \
    --metrics-out "${logdir}/service_metrics.json" &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_metrics_schema.py "${logdir}/service_metrics.json" --expect-net
    else
      echo "python3 absent; schema check skipped (snapshot at ${logdir}/service_metrics.json)"
    fi &&
    tsan_configure &&
    cmake --build "${prefix}-tsan" -j "${jobs}" --target test_service &&
    "${prefix}-tsan/tests/test_service"
}

# Event-loop socket service end-to-end: the Release socket bench at the
# 1000-connection acceptance floor (its exit code IS the oracle
# reconciliation + zero-drift + overload audit), the net.async.* schema
# check on its snapshot, the lockstep-vs-socket timing gate, and the async
# engine suite under TSan (epoll readiness + timer wheel + stream decoder).
service_socket_job() {
  "${prefix}/bench/bench_service_load" --transport socket --devices 1000 \
    --metrics-out "${logdir}/service_socket_metrics.json" &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_metrics_schema.py \
        "${logdir}/service_socket_metrics.json" --expect-net-socket &&
        python3 tools/check_bench_regression.py \
          bench_out/service_socket_timing.json
    else
      echo "python3 absent; schema check skipped (snapshot at ${logdir}/service_socket_metrics.json)"
    fi &&
    tsan_configure &&
    cmake --build "${prefix}-tsan" -j "${jobs}" --target test_async_service &&
    "${prefix}-tsan/tests/test_async_service"
}

# Scan-throughput A/B: the per-cell stage-walk oracle (scalar) vs the
# batched scan kernel on the acceptance workload. The binary itself asserts
# the two sides are bit-identical (and the timed side thread-count-
# deterministic); the schema gate then checks the timing artifact and that
# batched hasn't regressed behind scalar. Enrollment throughput runs the
# same way at a CI-sized challenge count: the binary asserts streaming ==
# whole-scan reference bit-identity and the fixed-memory RSS bound, the gate
# checks the timing artifact and that streaming hasn't regressed behind the
# reference (field names materialized_seconds / streaming_seconds).
bench_job() {
  "${prefix}/bench/bench_scan_throughput" --threads 1 &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_bench_regression.py bench_out/scan_throughput_timing.json
    else
      echo "python3 absent; timing check skipped (bench_out/scan_throughput_timing.json)"
    fi &&
    "${prefix}/bench/bench_enroll_throughput" --threads 1 --challenges 131072 &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_bench_regression.py bench_out/enroll_throughput_timing.json
    else
      echo "python3 absent; timing check skipped (bench_out/enroll_throughput_timing.json)"
    fi
}

# Enrollment-store scale bench at a CI-sized fleet. The binary itself is
# the crash-safety/accounting audit (flat RSS with the LRU at 1% of the
# fleet, cache/ledger/shard counter identities, cold-replay equivalence,
# compaction round-trip); the gate checks the timing artifact and that the
# cached serve path has not regressed behind uncached cold replay.
store_job() {
  "${prefix}/bench/bench_db_scale" --devices 4000 --auths 800 &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_bench_regression.py bench_out/db_scale_timing.json
    else
      echo "python3 absent; timing check skipped (bench_out/db_scale_timing.json)"
    fi
}

# Authentication hot path at CI scale. The binary's exit code IS the audit
# (packed kernel == reference walk, pure pooled drains, zero metrics drift,
# flat RSS); the gates then check the auth.*/db.mmap_* counter schema and
# both A/B pairs (packed-screening, pooled-issue) for regressions. The
# acceptance-scale >= 3x pooled floor runs on the million-device fleet
# (BENCH_auth_throughput.json), not here — CI shares one noisy core.
auth_job() {
  "${prefix}/bench/bench_auth_throughput" --devices 4000 --auths 800 \
    --metrics-out "${logdir}/auth_metrics.json" &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_metrics_schema.py "${logdir}/auth_metrics.json" \
        --expect-auth &&
        python3 tools/check_bench_regression.py bench_out/auth_throughput_timing.json
    else
      echo "python3 absent; gates skipped (bench_out/auth_throughput_timing.json)"
    fi
}

# Portable-path contract: with the AVX2 kernels compiled out, the packed
# screening kernel and the linear tile kernels must pass the same
# bit-identity suites against the reference walks and the golden sequence.
# test_streaming and test_tester cover the tester's one cell kernel, which
# runs the portable tile kernel in this build.
scalar_job() {
  local t
  local suites="test_screening test_linear test_selection test_database test_streaming test_tester"
  cmake -B "${prefix}-scalar" -S . -DCMAKE_BUILD_TYPE=Release -DXPUF_WERROR=ON \
    -DXPUF_BATCH_SIMD=OFF \
    -DXPUF_BUILD_BENCHMARKS=OFF \
    -DXPUF_BUILD_EXAMPLES=OFF &&
    cmake --build "${prefix}-scalar" -j "${jobs}" --target ${suites} &&
    for t in ${suites}; do
      "${prefix}-scalar/tests/${t}" || return 1
    done
}

# Build trees are run artifacts, never sources: fail when git tracks any
# path under build/, build-*/, build_*/ or .bench_build/ (at any depth, as
# .gitignore ignores them). Skipped outside a git checkout.
committed_build_tree_guard() {
  if ! command -v git >/dev/null 2>&1 || [ ! -e .git ]; then
    echo "git or .git absent; committed-build-tree guard skipped"
    return 0
  fi
  local tracked
  tracked="$(git ls-files | grep -E '(^|/)(build|build-[^/]*|build_[^/]*|\.bench_build)/' || true)"
  if [ -n "${tracked}" ]; then
    echo "committed build tree: git tracks $(echo "${tracked}" | wc -l) build artifact(s):" >&2
    echo "${tracked}" | head -n 20 >&2
    return 1
  fi
  echo "no committed build trees"
}

# Lint artifact + suppression-budget gate. The engine's exit code is folded
# into the python gate (which prints the offending findings); without
# python3 the raw exit code is the gate. The committed-build-tree guard runs
# first.
lint_job() {
  committed_build_tree_guard || return 1
  local status=0
  "${prefix}/tools/xpuf_lint" --root . --format json \
    --out "${logdir}/lint_report.json" || status=$?
  if command -v python3 >/dev/null 2>&1; then
    python3 tools/check_lint_baseline.py "${logdir}/lint_report.json" \
      tools/lint_baseline.json
  else
    echo "python3 absent; budget gate skipped (report at ${logdir}/lint_report.json)"
    [ "${status}" -eq 0 ]
  fi
}

# GCC static analyzer over the protocol and concurrency layers — the code
# paths driven by externally-supplied bytes and thread scheduling, where the
# analyzer's path-sensitive checks (leaks, use-after-free, infinite loops)
# pay off; the lockstep oracle engine and its pipe/fault transports
# (tests/oracles/) are swept with them.
# -Wanalyzer-use-of-uninitialized-value is disabled: GCC 12 reports known
# false positives through libstdc++ string internals and the thread-pool
# lambda captures. Anything else fails the job.
fanalyzer_job() {
  local diags="${logdir}/fanalyzer_diagnostics.log"
  : >"${diags}"
  local tu
  for tu in src/net/*.cpp src/common/*.cpp tests/oracles/service.cpp \
    tests/oracles/pipe_transport.cpp; do
    echo "-- ${tu}"
    g++ -std=c++20 -Isrc -Itests -O1 -fanalyzer \
      -Wno-analyzer-use-of-uninitialized-value \
      -c -o /dev/null "${tu}" 2>>"${diags}" || {
      echo "fanalyzer: ${tu} failed to compile:" >&2
      tail -n 20 "${diags}" >&2
      return 1
    }
  done
  if grep -q -- "-Wanalyzer-" "${diags}"; then
    echo "fanalyzer: unexpected analyzer diagnostics:" >&2
    grep -- "-Wanalyzer-" "${diags}" >&2
    return 1
  fi
  echo "analyzer sweep clean (diagnostics log: ${diags})"
}

metrics_job() {
  "${prefix}/bench/bench_tabB_authentication" \
    --challenges 4000 --trials 1000 --chips 1 \
    --metrics-out "${logdir}/tabB_metrics.json" &&
    if command -v python3 >/dev/null 2>&1; then
      python3 tools/check_metrics_schema.py "${logdir}/tabB_metrics.json"
    else
      echo "python3 absent; schema check skipped (snapshot at ${logdir}/tabB_metrics.json)"
    fi
}

run_job release release_job
run_job lint lint_job
run_job fanalyzer fanalyzer_job
run_job bench bench_job
run_job store store_job
run_job auth auth_job
run_job scalar scalar_job
run_job metrics metrics_job
run_job service service_job
run_job service-socket service_socket_job
run_job asan asan_job
run_job tsan tsan_job
run_job tidy ./tools/tidy.sh "${prefix}-tidy"

echo
echo "CI OK (logs under ${logdir}/)"

#!/usr/bin/env bash
# Full CI gate in one command:
#   1. release build + complete test suite, then the same suite against
#      the scalar SIMD fallback (F3D_SIMD=OFF), then the sdc-labelled
#      subset on its own (ABFT guards, bit-flip injection, Json/checkpoint
#      hardening) and the failslow-labelled subset (straggler injection,
#      outlier detector, mitigation ladder) so each defense layer's
#      regressions are visible as their own stage
#   2. thread-scaling bench of the exec-layer kernels (writes
#      BENCH_threading.json; also re-verifies bit-identity across thread
#      counts and exits nonzero on any mismatch), then the SIMD +
#      mixed-precision three-way A/B (writes BENCH_simd.json; exits
#      nonzero when the mixed solve misses the double solve's
#      tolerance), then the SDC injection
#      campaign (writes BENCH_sdc.json; exits nonzero when exponent-flip
#      detection coverage drops below 90%, a clean run false-positives,
#      or guard overhead exceeds 10%), then the fail-slow mitigation
#      sweep (writes BENCH_failslow.json; exits nonzero when the ladder
#      recovers < 50% of a 4x straggler's tax or the detector
#      false-positives on a clean campaign), then the deadline oracle
#      campaign (writes BENCH_deadline.json; exits nonzero when the
#      degradation ladder's on-time rate drops below 95%, the stall
#      watchdog false-positives on a clean scenario or misses the stall
#      scenario, or p99 cancellation latency exceeds the documented
#      work-unit bound at 1/2/4 threads), then the self-tuning A/B
#      (writes BENCH_tune.json + build/tune_db.json; exits nonzero when
#      the tuned config is worse
#      than the compiled defaults or the DB round-trip is not
#      bit-identical), then the scenario-fleet storm campaign (writes
#      BENCH_fleet.json; exits nonzero when the retry ladder misses a
#      non-poison scenario, poison escapes quarantine, kill-and-restart
#      loses or double-commits a scenario, clean-lane overhead exceeds
#      10%, or a re-run is not bit-identical)
#   3. docs gate: a traced quickstart run must produce a schema-valid
#      Chrome trace whose phase spans cover >=90% of the solve, every
#      committed BENCH_*.json must carry the f3d-bench-v1 envelope, the
#      tuning DB must match f3d-tunedb-v1, every registered knob (dumped
#      via tuned_solve -dump-knobs) must be documented in docs/TUNING.md
#      (with a negative control proving the cross-check can fail), the
#      markdown must have no dead relative links, and README's
#      PtcRecoveryOptions table may name only fields of that struct (with
#      its own negative control)
#   4. ASan+UBSan build + the resilience-labelled tests (the fault
#      injection / recovery / checkpoint / distributed-campaign paths,
#      where memory bugs would hide behind error handling) + the driver-
#      (plain psi-NKS path), sparse- (formats, ILU, the in-place block-ILU
#      refactor's buffer reuse), sdc-, failslow- and simd-labelled tests
#      under the same sanitizers
#   5. TSan build + the threaded-labelled tests (the exec pool, the
#      owner-computes edge kernels' disjoint writes, the Schwarz apply
#      across thread counts) with a 4-thread pool
#
# Usage: scripts/ci.sh [-j N]

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
while getopts "j:" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

echo "=== release build + full test suite ==="
cmake --preset release
cmake --build --preset release -j "$JOBS"
ctest --preset release -j "$JOBS"

# Scalar-fallback lane: the same suite must pass with the explicit SIMD
# kernels compiled out (F3D_SIMD=OFF) — the portable configuration every
# non-x86 or older-compiler build lands on, and the "scalar-double" leg
# of the bench_simd A/B.
echo "=== scalar-fallback build (F3D_SIMD=OFF) + full test suite ==="
cmake --preset release-scalar
cmake --build --preset release-scalar -j "$JOBS"
ctest --preset release-scalar -j "$JOBS"

echo "=== sdc-labelled tests (release) ==="
ctest --preset release-sdc -j "$JOBS"

echo "=== failslow-labelled tests (release) ==="
ctest --preset release-failslow -j "$JOBS"

# Hang-detection lane: the run-to-completion tests exercise deadlines and
# cancellation, where a regression shows up as a wedge, not a wrong
# answer. Every test carries a TIMEOUT property and the preset adds a
# hard 120 s cap, so a hung solve fails loudly here instead of stalling
# the pipeline.
echo "=== guard-labelled tests (release, hang-detection lane) ==="
ctest --preset release-guard -j "$JOBS" --timeout 120

echo "=== tune-labelled tests (release) ==="
ctest --preset release-tune -j "$JOBS"

# Fleet lane: journal replay/truncation sweeps, the retry/quarantine
# ladder, and admission control. Kill-and-restart tests replay real
# journals, so a hard TIMEOUT cap keeps a wedged resume from stalling CI.
echo "=== fleet-labelled tests (release) ==="
ctest --preset release-fleet -j "$JOBS" --timeout 120

echo "=== thread-scaling bench (BENCH_threading.json) ==="
./build/bench/bench_threading -vertices 8000 -reps 3 -out BENCH_threading.json

echo "=== SIMD + mixed-precision A/B (BENCH_simd.json) ==="
./build/bench/bench_simd -vertices 8000 -reps 3 -solve-steps 6 -out BENCH_simd.json

echo "=== SDC injection campaign (BENCH_sdc.json) ==="
./build/bench/bench_sdc -out BENCH_sdc.json

echo "=== fail-slow mitigation sweep (BENCH_failslow.json) ==="
./build/bench/bench_failslow -out BENCH_failslow.json

echo "=== deadline oracle campaign (BENCH_deadline.json) ==="
./build/bench/bench_deadline -out BENCH_deadline.json

echo "=== self-tuning A/B (BENCH_tune.json + build/tune_db.json) ==="
./build/bench/bench_tune -small 2500 -medium 6000 -width 8 -rungs 2 \
  -db build/tune_db.json -out BENCH_tune.json

echo "=== scenario-fleet storm campaign (BENCH_fleet.json) ==="
./build/bench/bench_fleet -out BENCH_fleet.json

echo "=== docs gate: trace schema + bench envelopes + markdown links ==="
F3D_TRACE=1 F3D_TRACE_OUT=build/ci_trace.json ./build/examples/quickstart
./build/examples/tuned_solve -dump-knobs > build/knobs.json
python3 scripts/check_docs.py --trace build/ci_trace.json --min-coverage 0.9 \
  --tunedb build/tune_db.json --knobs build/knobs.json

# Negative control for the knob-catalog cross-check: strip one knob from
# a copy of the tuning doc and demand the gate notices. A gate that
# cannot fail is not a gate.
echo "=== docs gate negative control (deliberately undocumented knob) ==="
grep -v 'ptc\.cfl0' docs/TUNING.md > build/TUNING_missing.md
if python3 scripts/check_docs.py --knobs build/knobs.json \
     --tuning-md build/TUNING_missing.md >/dev/null 2>&1; then
  echo "ERROR: check_docs.py accepted a tuning doc missing ptc.cfl0" >&2
  exit 1
fi

# Negative control for the unknown-experiment registry: a schema-valid
# BENCH artifact whose experiment has no registered validator must fail
# the docs gate rather than slide through envelope-only.
echo "=== docs gate negative control (unregistered BENCH experiment) ==="
mkdir -p build/docs_negctl
cat > build/docs_negctl/BENCH_mystery.json <<'EOF'
{"meta": {"schema": "f3d-bench-v1", "experiment": "mystery",
          "host_isa": {"isa": "none", "arch": "x86_64",
                       "double_lanes": 1, "simd_compiled": false}},
 "series": {}}
EOF
if python3 scripts/check_docs.py --repo build/docs_negctl >/dev/null 2>&1; then
  echo "ERROR: check_docs.py accepted an unregistered BENCH experiment" >&2
  exit 1
fi

# Negative control for the recovery-table cross-check: a README row naming
# a field PtcRecoveryOptions does not have must be reported.
echo "=== docs gate negative control (README names a removed knob) ==="
mkdir -p build/docs_negctl_recovery/src/solver
cp src/solver/newton.hpp build/docs_negctl_recovery/src/solver/
sed 's/^| `resume` |/| `max_step_retries` | 6 | removed knob |\n&/' README.md \
  > build/docs_negctl_recovery/README.md
python3 scripts/check_docs.py --repo build/docs_negctl_recovery \
  > build/docs_negctl_recovery/check.log 2>&1 || true
if ! grep -q "names 'max_step_retries'" \
     build/docs_negctl_recovery/check.log; then
  echo "ERROR: check_docs.py accepted a README naming a removed knob" >&2
  exit 1
fi

echo "=== asan build + resilience-labelled tests ==="
cmake --preset asan
cmake --build --preset asan -j "$JOBS"
ctest --preset asan-resilience -j "$JOBS"
ctest --preset asan-driver -j "$JOBS"
ctest --preset asan-sparse -j "$JOBS"
ctest --preset asan-sdc -j "$JOBS"
ctest --preset asan-failslow -j "$JOBS"
ctest --preset asan-tune -j "$JOBS"
ctest --preset asan-fleet -j "$JOBS" --timeout 240

# UBSan over the explicit SIMD kernels: the memcpy-based pack loads and
# the float promote paths must be alignment- and aliasing-clean.
echo "=== simd-labelled tests (ASan+UBSan) ==="
ctest --preset asan-simd -j "$JOBS"

echo "=== tsan build + threaded-labelled tests ==="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
ctest --preset tsan-threaded -j "$JOBS"

echo "=== CI green ==="

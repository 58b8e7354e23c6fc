#!/usr/bin/env bash
# Umbrella smoke gate (ISSUE 5 satellite): one command that runs every
# subsystem's smoke script plus the metamorphic-oracle gates this PR adds.
#
#   1. scripts/smoke_robustness.sh — fault injection + resume digest (ASan).
#   2. scripts/smoke_parallel.sh   — job-count invariance (TSan).
#   3. scripts/smoke_interp.sh     — engine parity across job counts (ASan).
#   4. scripts/smoke_supervisor.sh — crash-isolated supervisor: supervised vs
#      in-process digest equality, forced-crash recovery, poison-case
#      quarantine + replay, SIGTERM + resume bit-identity (ASan).
#   5. scripts/smoke_reset.sh     — BVF_PARANOID_RESET=1 digest gate: the
#      dirty-tracked arena reset cross-checked against the full rewind across
#      jobs x interp x --supervise legs, plus checkpoint/resume (ASan).
#   6. scripts/smoke_jit.sh      — JIT execution tier: jit suites under ASan,
#      the 3x3 {--interp=jit,decoded,legacy} x {jobs=1, jobs=4, --supervise}
#      digest matrix, and jit + cross-engine checkpoint/resume bit-identity.
#   7. scripts/smoke_conformance.sh — conformance corpus: the suite under
#      ASan, the vendored corpus campaign digest across {--jobs=1, --jobs=4,
#      --supervise}, counter-line equality, and checkpoint/resume with the
#      prologue active (ASan).
#   8. Metamorph gate: a short --metamorph --metamorph-k=2 campaign under
#      ASan/UBSan must produce one bit-identical campaign digest across
#      {--jobs=1, --jobs=4} x {--interp=decoded, --interp=legacy} plus a
#      --supervise --jobs=2 leg, and the metamorph counter line must be
#      identical on every leg (the supervised one included: its workers ship
#      the digest-excluded counters in their result frames).
#   9. Tier-1 label audit: every discovered ctest test must carry the tier1
#      label (`ctest -N` count == `ctest -N -L tier1` count) and the suites
#      this tree considers load-bearing (supervisor digest and counters,
#      journal, parallel, checkpoint, counter lines, the options-fingerprint
#      pin, jit, conformance, prune fingerprint, checkpoint fuzz, bounded
#      loops) must actually be discovered, so nothing can silently drop out of
#      the tier-1 gate. The prune-fingerprint suites (fast path vs plain scan,
#      and the fingerprint contract), the LoadCheckpoint mutational fuzz suite
#      and the bounded-loop generator/mutator suite also run here under
#      ASan/UBSan.
#
# Usage: scripts/smoke_all.sh [asan-build-dir] [tsan-build-dir]
#        (defaults: build-smoke build-tsan)

set -euo pipefail

cd "$(dirname "$0")/.."
ASAN_DIR="${1:-build-smoke}"
TSAN_DIR="${2:-build-tsan}"
MM_ITERATIONS=200
MM_SEED=7

echo "==== [1/9] smoke_robustness ===="
scripts/smoke_robustness.sh "$ASAN_DIR"

echo
echo "==== [2/9] smoke_parallel ===="
scripts/smoke_parallel.sh "$TSAN_DIR"

echo
echo "==== [3/9] smoke_interp ===="
scripts/smoke_interp.sh "$ASAN_DIR"

echo
echo "==== [4/9] smoke_supervisor ===="
scripts/smoke_supervisor.sh "$ASAN_DIR"

echo
echo "==== [5/9] smoke_reset ===="
scripts/smoke_reset.sh "$ASAN_DIR"

echo
echo "==== [6/9] smoke_jit ===="
scripts/smoke_jit.sh "$ASAN_DIR"

echo
echo "==== [7/9] smoke_conformance ===="
scripts/smoke_conformance.sh "$ASAN_DIR"

echo
echo "==== [8/9] metamorph digest gate (ASan/UBSan) ===="
CAMPAIGN="$ASAN_DIR/examples/fuzz_campaign"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

declare -A DIGESTS
for INTERP in decoded legacy; do
    for JOBS in 1 4; do
        echo
        echo "== campaign --metamorph --interp=$INTERP --jobs=$JOBS =="
        "$CAMPAIGN" "$MM_ITERATIONS" "$MM_SEED" --metamorph --metamorph-k=2 \
            --interp="$INTERP" --jobs="$JOBS" --smoke \
            | tee "$WORK/mm-$INTERP-jobs$JOBS.log"
        DIGESTS[$INTERP-$JOBS]="$(grep '^campaign-digest ' "$WORK/mm-$INTERP-jobs$JOBS.log" | awk '{print $2}')"
    done
done

echo
echo "== campaign --metamorph --supervise --jobs=2 =="
"$CAMPAIGN" "$MM_ITERATIONS" "$MM_SEED" --metamorph --metamorph-k=2 \
    --supervise --jobs=2 --smoke | tee "$WORK/mm-supervise-jobs2.log"
DIGESTS[supervise-2]="$(grep '^campaign-digest ' "$WORK/mm-supervise-jobs2.log" | awk '{print $2}')"

echo
REF="${DIGESTS[decoded-1]}"
for KEY in decoded-4 legacy-1 legacy-4 supervise-2; do
    if [[ -z "$REF" || "${DIGESTS[$KEY]}" != "$REF" ]]; then
        echo "SMOKE FAIL: metamorph campaign digest at $KEY (${DIGESTS[$KEY]}) != decoded-1 ($REF)"
        exit 1
    fi
done

# The oracle's volume counters (bases/variants/divergences) are digest-
# excluded, so gate them separately: all four legs must report the same line.
MMREF="$(grep 'metamorph:' "$WORK/mm-decoded-jobs1.log")"
for KEY in decoded-jobs4 legacy-jobs1 legacy-jobs4 supervise-jobs2; do
    MM="$(grep 'metamorph:' "$WORK/mm-$KEY.log")"
    if [[ -z "$MMREF" || "$MM" != "$MMREF" ]]; then
        echo "SMOKE FAIL: metamorph counters diverge at $KEY:"
        echo "  decoded-jobs1: $MMREF"
        echo "  $KEY: $MM"
        exit 1
    fi
done
echo "smoke: metamorph campaign digest $REF on all five engine/jobs/topology legs"
echo "smoke: metamorph counters identical ($(echo "$MMREF" | sed 's/^ *//'))"

echo
echo "==== [9/9] tier-1 label audit ===="
# gtest test discovery happens at build time, so the audit needs the whole
# tree built in the ASan dir (the earlier legs only built their own targets).
cmake --build "$ASAN_DIR" -j"$(nproc)" >/dev/null
ALL_TESTS="$(ctest --test-dir "$ASAN_DIR" -N 2>/dev/null | sed -n 's/^Total Tests: *//p')"
TIER1_TESTS="$(ctest --test-dir "$ASAN_DIR" -N -L tier1 2>/dev/null | sed -n 's/^Total Tests: *//p')"
if [[ -z "$ALL_TESTS" || "$ALL_TESTS" -eq 0 ]]; then
    echo "SMOKE FAIL: ctest discovered no tests in $ASAN_DIR (build the test targets first)"
    exit 1
fi
if [[ "$ALL_TESTS" != "$TIER1_TESTS" ]]; then
    echo "SMOKE FAIL: $ALL_TESTS tests discovered but only $TIER1_TESTS carry the tier1 label"
    exit 1
fi
# List once and grep the captured text: piping ctest straight into `grep -q`
# lets grep exit at the first match, and under pipefail the SIGPIPE that
# ctest then takes would read as "suite missing".
TIER1_LIST="$(ctest --test-dir "$ASAN_DIR" -N -L tier1 2>/dev/null)"
ASAN_SUITES="PruneFingerprintTest FingerprintContractTest CheckpointFuzzTest BoundedLoopTest"
for SUITE in SupervisorDigestTest SupervisorCounterTest JournalTest ParallelInvarianceTest \
        CheckpointTest ExcludedCountersTest FingerprintPinTest JitEngineTest \
        ConformanceCorpusTest AsmRoundTripTest $ASAN_SUITES; do
    if ! grep -q "$SUITE" <<< "$TIER1_LIST"; then
        echo "SMOKE FAIL: load-bearing suite $SUITE not discovered under the tier1 label"
        exit 1
    fi
done
echo "smoke: all $ALL_TESTS discovered tests carry the tier1 label (load-bearing suites present)"
ctest --test-dir "$ASAN_DIR" -L tier1 -R "^(${ASAN_SUITES// /|})\\." --output-on-failure >/dev/null || {
    echo "SMOKE FAIL: prune-fingerprint, checkpoint-fuzz or bounded-loop suites fail under ASan/UBSan"
    exit 1
}
echo "smoke: prune-fingerprint, checkpoint-fuzz and bounded-loop suites pass under ASan/UBSan"

echo
echo "smoke_all: PASS"

#!/usr/bin/env bash
# Decode-once micro-op engine smoke gate (ISSUE 4 acceptance):
#
#   1. Build the tree with BVF_SANITIZE=ON so the differential parity suite
#      and the campaigns below run under host ASan/UBSan — the decoder, the
#      and the threaded-dispatch loop must be clean.
#   2. Run the differential parity suite (tests/interp_parity_test.cc):
#      legacy and decoded engines must agree instruction-for-instruction on
#      results, sanitizer verdicts, and step accounting.
#   3. Run the same campaign four ways — {--interp=decoded, --interp=legacy}
#      x {--jobs=1, --jobs=2} — and require all four campaign digests to be
#      bit-identical: the execution engine and the job count must both be
#      invisible to findings, outcome histograms, coverage, and stats.
#
# Usage: scripts/smoke_interp.sh [build-dir]   (default: build-smoke)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-smoke}"
ITERATIONS=300
SEED=11

echo "== configure + build (BVF_SANITIZE=ON) =="
cmake -B "$BUILD_DIR" -S . -DBVF_SANITIZE=ON >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target interp_parity_test fuzz_campaign >/dev/null

echo
echo "== differential parity suite (ASan/UBSan) =="
"$BUILD_DIR/tests/interp_parity_test"

CAMPAIGN="$BUILD_DIR/examples/fuzz_campaign"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

declare -A DIGESTS
for INTERP in decoded legacy; do
    for JOBS in 1 2; do
        echo
        echo "== campaign --interp=$INTERP --jobs=$JOBS (ASan/UBSan) =="
        # --smoke turns on the campaign's self-checks and the campaign-digest
        # line; it also runs an embedded jobs=1-vs-2 invariance check in the
        # selected engine.
        "$CAMPAIGN" "$ITERATIONS" "$SEED" --interp="$INTERP" --jobs="$JOBS" --smoke \
            | tee "$WORK/$INTERP-jobs$JOBS.log"
        DIGESTS[$INTERP-$JOBS]="$(grep '^campaign-digest ' "$WORK/$INTERP-jobs$JOBS.log" | awk '{print $2}')"
    done
done

echo
echo "== four-way digest comparison: engine x job count =="
REF="${DIGESTS[decoded-1]}"
for KEY in decoded-2 legacy-1 legacy-2; do
    if [[ -z "$REF" || "${DIGESTS[$KEY]}" != "$REF" ]]; then
        echo "SMOKE FAIL: campaign digest at $KEY (${DIGESTS[$KEY]}) != decoded-1 ($REF)"
        exit 1
    fi
done

echo "smoke: all four engine/jobs combinations produced digest $REF"
echo "smoke_interp: PASS"

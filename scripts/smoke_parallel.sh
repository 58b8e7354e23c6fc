#!/usr/bin/env bash
# Parallel-engine smoke gate (ISSUE 3 acceptance):
#
#   1. Build the tree with BVF_TSAN=ON so the sharded campaign engine runs
#      under ThreadSanitizer — the epoch-barrier discipline (frozen snapshots
#      between barriers, coordinator-only merges) must be data-race free.
#   2. Run the same campaign at --jobs=1, --jobs=2, and --jobs=4 (faults +
#      confirmation on) and require every campaign digest to
#      match: findings, outcome histograms, coverage, and stats must be
#      bit-identical for any job count.
#   3. fuzz_campaign --smoke additionally runs its own embedded jobs=1 vs
#      jobs=2 invariance check and exits non-zero on divergence.
#
# Usage: scripts/smoke_parallel.sh [build-dir]   (default: build-tsan)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
ITERATIONS=200
SEED=7

echo "== configure + build (BVF_TSAN=ON) =="
cmake -B "$BUILD_DIR" -S . -DBVF_TSAN=ON >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target fuzz_campaign >/dev/null

CAMPAIGN="$BUILD_DIR/examples/fuzz_campaign"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

declare -A DIGESTS
for JOBS in 1 2 4; do
    echo
    echo "== campaign at --jobs=$JOBS (TSan) =="
    # Every leg runs the one epoch engine, so every digest must match.
    "$CAMPAIGN" "$ITERATIONS" "$SEED" --fault-rate=0.1 --confirm-runs=2 \
        --jobs="$JOBS" --smoke | tee "$WORK/jobs$JOBS.log"
    DIGESTS[$JOBS]="$(grep '^parallel-invariance-digest ' "$WORK/jobs$JOBS.log" | awk '{print $2}')"
done

echo
for JOBS in 2 4; do
    if [[ -z "${DIGESTS[1]}" || "${DIGESTS[$JOBS]}" != "${DIGESTS[1]}" ]]; then
        echo "SMOKE FAIL: invariance digest at jobs=$JOBS (${DIGESTS[$JOBS]}) != jobs=1 (${DIGESTS[1]})"
        exit 1
    fi
done

# Direct cross-job digest comparison of the campaigns themselves.
echo "== direct jobs=1 vs jobs=2 vs jobs=4 campaign digest comparison =="
D1="$(grep '^campaign-digest ' "$WORK/jobs1.log" | awk '{print $2}')"
D2="$(grep '^campaign-digest ' "$WORK/jobs2.log" | awk '{print $2}')"
D4="$(grep '^campaign-digest ' "$WORK/jobs4.log" | awk '{print $2}')"
if [[ -z "$D1" || "$D1" != "$D2" || "$D1" != "$D4" ]]; then
    echo "SMOKE FAIL: campaign digests diverge: jobs=1 ($D1) jobs=2 ($D2) jobs=4 ($D4)"
    exit 1
fi
echo "smoke: all job counts produced digest $D1 (invariance ${DIGESTS[1]})"
echo "smoke_parallel: PASS"

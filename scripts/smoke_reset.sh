#!/usr/bin/env bash
# Dirty-reset smoke gate (ISSUE 8 acceptance):
#
#   1. Build the tree with BVF_SANITIZE=ON (ASan + UBSan).
#   2. For each engine leg — {--jobs=1, --jobs=4} x {--interp=decoded,
#      --interp=legacy}, and --supervise — run the same 200-iteration campaign
#      twice: once with shipping defaults (dirty-tracked arena reset) and once
#      with BVF_PARANOID_RESET=1, where every reset re-runs the full-arena
#      rewind alongside the dirty-tracked one and aborts on any byte
#      divergence. The two digests must match bit-for-bit per leg: the
#      cross-check is observability-free, so a digest change means the reset
#      leaked state between cases. (Each leg is compared against its own twin.)
#   3. Checkpoint/resume under paranoid reset: stop at iteration 100, resume,
#      and require the stitched digest to match the uninterrupted default leg
#      (decoded-jobs1: the flags spell out the defaults).
#
# Usage: scripts/smoke_reset.sh [build-dir]   (default: build-smoke)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-smoke}"
ITERATIONS=200
SEED=7

echo "== configure + build (BVF_SANITIZE=ON) =="
cmake -B "$BUILD_DIR" -S . -DBVF_SANITIZE=ON >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target fuzz_campaign >/dev/null

CAMPAIGN="$BUILD_DIR/examples/fuzz_campaign"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# digest <logfile> — extracts the campaign digest from a --smoke run's log.
digest() {
    grep '^campaign-digest ' "$1" | awk '{print $2}'
}

# check_leg <name> <flags...> — runs the campaign with and without
# BVF_PARANOID_RESET=1 and requires bit-identical digests.
check_leg() {
    local name="$1"
    shift
    echo
    echo "== leg: $name =="
    "$CAMPAIGN" "$ITERATIONS" "$SEED" --smoke "$@" > "$WORK/$name-plain.log"
    BVF_PARANOID_RESET=1 "$CAMPAIGN" "$ITERATIONS" "$SEED" --smoke "$@" \
        > "$WORK/$name-paranoid.log"
    local plain paranoid
    plain="$(digest "$WORK/$name-plain.log")"
    paranoid="$(digest "$WORK/$name-paranoid.log")"
    if [[ -z "$plain" || "$plain" != "$paranoid" ]]; then
        echo "SMOKE FAIL: $name paranoid digest ($paranoid) != plain ($plain)"
        exit 1
    fi
    echo "smoke: $name digest $plain identical with and without paranoid reset"
}

check_leg decoded-jobs1 --interp=decoded --jobs=1
check_leg decoded-jobs4 --interp=decoded --jobs=4
check_leg legacy-jobs1 --interp=legacy --jobs=1
check_leg legacy-jobs4 --interp=legacy --jobs=4
check_leg supervise --supervise

echo
echo "== paranoid checkpoint/resume: stop at 100, resume to $ITERATIONS =="
DEFAULT_REF="$(digest "$WORK/decoded-jobs1-plain.log")"
BVF_PARANOID_RESET=1 "$CAMPAIGN" "$ITERATIONS" "$SEED" --smoke \
    --stop-after=100 --checkpoint="$WORK/cp.bvfcp" --checkpoint-every=50 \
    > "$WORK/leg1.log"
BVF_PARANOID_RESET=1 "$CAMPAIGN" "$ITERATIONS" "$SEED" --smoke \
    --resume="$WORK/cp.bvfcp" > "$WORK/resumed.log"
RESUMED="$(digest "$WORK/resumed.log")"
if [[ -z "$DEFAULT_REF" || "$RESUMED" != "$DEFAULT_REF" ]]; then
    echo "SMOKE FAIL: paranoid resumed digest ($RESUMED) != default reference ($DEFAULT_REF)"
    exit 1
fi
echo "smoke: resumed digest $RESUMED matches the uninterrupted default leg"

echo
echo "smoke_reset: PASS (paranoid dirty-reset cross-check digest-stable on all legs)"

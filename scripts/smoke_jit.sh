#!/usr/bin/env bash
# JIT execution tier smoke gate (ISSUE 9 acceptance):
#
#   1. Build the tree with BVF_SANITIZE=ON so the JIT's C++ half (compiler,
#      trampolines) runs under host ASan/UBSan. The generated code
#      itself is uninstrumented by construction; every side effect it performs
#      goes through instrumented trampolines.
#   2. Run the JIT-specific suite (JitEngineTest) plus the three-way engine
#      parity suite under sanitizers.
#   3. Run the same campaign as a 3x3 matrix — {--interp=jit, decoded, legacy}
#      x {--jobs=1, --jobs=4, --supervise --jobs=2} — and require all nine
#      campaign digests to be bit-identical: neither the execution tier nor
#      the execution topology may leak into findings, outcomes, coverage, or
#      stats.
#   4. Checkpoint/resume with the jit tier: a mid-run stop + resume at
#      --interp=jit must reproduce the uninterrupted digest, and a checkpoint
#      written under --interp=decoded must resume under --interp=jit with the
#      same digest (the engine is deliberately excluded from the checkpoint
#      fingerprint).
#
# Usage: scripts/smoke_jit.sh [build-dir]   (default: build-smoke)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-smoke}"
ITERATIONS=200
SEED=13

echo "== configure + build (BVF_SANITIZE=ON) =="
cmake -B "$BUILD_DIR" -S . -DBVF_SANITIZE=ON >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target interp_parity_test fuzz_campaign >/dev/null

echo
echo "== jit suites + three-way parity (ASan/UBSan) =="
"$BUILD_DIR/tests/interp_parity_test" \
    --gtest_filter='JitEngineTest.*:InterpParityTest.*'

CAMPAIGN="$BUILD_DIR/examples/fuzz_campaign"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

declare -A DIGESTS
for INTERP in jit decoded legacy; do
    for MODE in jobs1 jobs4 supervised; do
        case "$MODE" in
            jobs1) FLAGS=(--jobs=1) ;;
            jobs4) FLAGS=(--jobs=4) ;;
            supervised) FLAGS=(--supervise --jobs=2) ;;
        esac
        echo
        echo "== campaign --interp=$INTERP $MODE (ASan/UBSan) =="
        "$CAMPAIGN" "$ITERATIONS" "$SEED" --interp="$INTERP" "${FLAGS[@]}" --smoke \
            | tee "$WORK/$INTERP-$MODE.log"
        DIGESTS[$INTERP-$MODE]="$(grep '^campaign-digest ' "$WORK/$INTERP-$MODE.log" | awk '{print $2}')"
    done
done

echo
echo "== nine-way digest comparison: engine x topology =="
REF="${DIGESTS[jit-jobs1]}"
for INTERP in jit decoded legacy; do
    for MODE in jobs1 jobs4 supervised; do
        KEY="$INTERP-$MODE"
        if [[ -z "$REF" || "${DIGESTS[$KEY]}" != "$REF" ]]; then
            echo "SMOKE FAIL: campaign digest at $KEY (${DIGESTS[$KEY]}) != jit-jobs1 ($REF)"
            exit 1
        fi
    done
done
echo "smoke: all nine engine/topology combinations produced digest $REF"

echo
echo "== checkpoint/resume at --interp=jit =="
"$CAMPAIGN" "$ITERATIONS" "$SEED" --interp=jit --jobs=2 --smoke \
    --stop-after=100 --checkpoint="$WORK/jit.bvfcp" --checkpoint-every=50 \
    > "$WORK/jit-leg1.log"
"$CAMPAIGN" "$ITERATIONS" "$SEED" --interp=jit --jobs=2 --smoke \
    --resume="$WORK/jit.bvfcp" | tee "$WORK/jit-resumed.log"
DIGEST_RESUMED="$(grep '^campaign-digest ' "$WORK/jit-resumed.log" | awk '{print $2}')"
if [[ -z "$DIGEST_RESUMED" || "$DIGEST_RESUMED" != "$REF" ]]; then
    echo "SMOKE FAIL: jit resume digest $DIGEST_RESUMED != uninterrupted $REF"
    exit 1
fi
echo "smoke: jit checkpoint/resume digest matches uninterrupted run"

echo
echo "== cross-engine resume: checkpoint at --interp=decoded, resume at --interp=jit =="
"$CAMPAIGN" "$ITERATIONS" "$SEED" --interp=decoded --jobs=2 --smoke \
    --stop-after=100 --checkpoint="$WORK/cross.bvfcp" --checkpoint-every=50 \
    > "$WORK/cross-leg1.log"
"$CAMPAIGN" "$ITERATIONS" "$SEED" --interp=jit --jobs=2 --smoke \
    --resume="$WORK/cross.bvfcp" | tee "$WORK/cross-resumed.log"
DIGEST_CROSS="$(grep '^campaign-digest ' "$WORK/cross-resumed.log" | awk '{print $2}')"
if [[ -z "$DIGEST_CROSS" || "$DIGEST_CROSS" != "$REF" ]]; then
    echo "SMOKE FAIL: cross-engine resume digest $DIGEST_CROSS != uninterrupted $REF"
    exit 1
fi
echo "smoke: decoded-written checkpoint resumed on the jit tier, digest unchanged"
echo "smoke_jit: PASS"

#!/usr/bin/env bash
# Supervisor smoke gate (ISSUE 7 acceptance):
#
#   1. Build the tree with BVF_ASAN=ON so the fork/pipe/waitpid plumbing and
#      the journal/checkpoint I/O run under ASan/UBSan.
#   2. Digest-equality gate: the same campaign (faults + confirmation) run
#      in-process (--jobs=2) and supervised (--supervise --jobs=2) must
#      produce bit-identical campaign digests.
#   3. Fault-injected leg: re-run supervised with a forced worker crash
#      (--test-crash-at, SIGKILL mode, once via a marker file). The worker is
#      reaped and re-forked, the epoch retried — the digest must STILL be
#      bit-identical, and the supervisor must report exactly one crash and
#      one restart.
#   4. Poison-case leg: a crash with no marker fires on every retry; after
#      --worker-retries=2 failures the case must land in the quarantine file,
#      the campaign must degrade gracefully (one skipped iteration), and
#      --replay-quarantine must read the record back.
#   5. Kill/resume leg: SIGTERM the supervised campaign mid-run (checkpoint +
#      write-ahead journal on), resume, and require the final digest to match
#      the uninterrupted run.
#
# Usage: scripts/smoke_supervisor.sh [build-dir]   (default: build-smoke)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-smoke}"
ITERATIONS=300
SEED=7

echo "== configure + build (BVF_ASAN=ON) =="
cmake -B "$BUILD_DIR" -S . -DBVF_ASAN=ON >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target fuzz_campaign >/dev/null

CAMPAIGN="$BUILD_DIR/examples/fuzz_campaign"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo
echo "== leg 1: in-process reference (--jobs=2) =="
"$CAMPAIGN" "$ITERATIONS" "$SEED" --fault-rate=0.1 --confirm-runs=2 \
    --jobs=2 --smoke | tee "$WORK/inproc.log"
REF="$(grep '^campaign-digest ' "$WORK/inproc.log" | awk '{print $2}')"

echo
echo "== leg 2: supervised, no faults injected =="
"$CAMPAIGN" "$ITERATIONS" "$SEED" --fault-rate=0.1 --confirm-runs=2 \
    --jobs=2 --supervise --smoke | tee "$WORK/sup.log"
SUP="$(grep '^campaign-digest ' "$WORK/sup.log" | awk '{print $2}')"
if [[ -z "$REF" || "$SUP" != "$REF" ]]; then
    echo "SMOKE FAIL: supervised digest ($SUP) != in-process digest ($REF)"
    exit 1
fi

echo
echo "== leg 3: supervised with a forced SIGKILL worker crash mid-epoch =="
"$CAMPAIGN" "$ITERATIONS" "$SEED" --fault-rate=0.1 --confirm-runs=2 \
    --jobs=2 --supervise --smoke \
    --test-crash-at=50 --test-crash-mode=1 --test-crash-marker="$WORK/crash.marker" \
    | tee "$WORK/crash.log"
CRASH="$(grep '^campaign-digest ' "$WORK/crash.log" | awk '{print $2}')"
if [[ "$CRASH" != "$REF" ]]; then
    echo "SMOKE FAIL: crash-recovery digest ($CRASH) != in-process digest ($REF)"
    exit 1
fi
if ! grep -q 'supervisor: *1 crashes / 0 hangs / 0 exits; 1 restarts' "$WORK/crash.log"; then
    echo "SMOKE FAIL: expected exactly one crash + one restart in the supervisor line:"
    grep 'supervisor:' "$WORK/crash.log" || true
    exit 1
fi

echo
echo "== leg 4: poison case is quarantined and replayable =="
"$CAMPAIGN" "$ITERATIONS" "$SEED" --fault-rate=0.1 --confirm-runs=2 \
    --jobs=2 --supervise --worker-retries=2 \
    --test-crash-at=50 --test-crash-mode=0 --quarantine="$WORK/poison.bvfq" \
    | tee "$WORK/poison.log"
if ! grep -q '1 quarantined, 1 epochs degraded' "$WORK/poison.log"; then
    echo "SMOKE FAIL: poison case was not quarantined:"
    grep 'supervisor:' "$WORK/poison.log" || true
    exit 1
fi
"$CAMPAIGN" --replay-quarantine="$WORK/poison.bvfq" | tee "$WORK/replay.log"
if ! grep -q 'iteration 50 (2 failed attempts' "$WORK/replay.log"; then
    echo "SMOKE FAIL: quarantine replay did not read the poisoned case back"
    exit 1
fi

echo
echo "== leg 5: SIGTERM mid-campaign + resume is bit-identical =="
# A longer campaign so the signal reliably lands mid-run; same seed/options as
# a fresh reference leg below.
KILL_ITERATIONS=3000
"$CAMPAIGN" "$KILL_ITERATIONS" "$SEED" --fault-rate=0.1 --confirm-runs=2 \
    --jobs=2 --smoke > "$WORK/long-ref.log"
LONG_REF="$(grep '^campaign-digest ' "$WORK/long-ref.log" | awk '{print $2}')"
"$CAMPAIGN" "$KILL_ITERATIONS" "$SEED" --fault-rate=0.1 --confirm-runs=2 \
    --jobs=2 --supervise \
    --checkpoint="$WORK/term.bvfcp" --checkpoint-every=64 \
    --journal="$WORK/term.bvfj" > "$WORK/term.log" 2>&1 &
PID=$!
sleep 3
kill -TERM "$PID" 2>/dev/null || true
wait "$PID" || { echo "SMOKE FAIL: SIGTERMed supervisor exited non-zero"; exit 1; }
if [[ ! -f "$WORK/term.bvfcp" ]]; then
    echo "SMOKE FAIL: no checkpoint written by the SIGTERMed campaign"
    exit 1
fi
"$CAMPAIGN" "$KILL_ITERATIONS" "$SEED" --fault-rate=0.1 --confirm-runs=2 \
    --jobs=2 --supervise --resume="$WORK/term.bvfcp" \
    --journal="$WORK/term.bvfj" --smoke | tee "$WORK/resumed.log"
RESUMED="$(grep '^campaign-digest ' "$WORK/resumed.log" | awk '{print $2}')"
if [[ -z "$LONG_REF" || "$RESUMED" != "$LONG_REF" ]]; then
    echo "SMOKE FAIL: SIGTERM+resume digest ($RESUMED) != uninterrupted digest ($LONG_REF)"
    exit 1
fi

echo
echo "smoke: supervised digest $REF matches in-process on clean, crash, and kill/resume legs"
echo "smoke_supervisor: PASS"

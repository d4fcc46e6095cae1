#!/usr/bin/env bash
# End-to-end checkpoint/resume smoke for CI.
#
# Holds the DESIGN.md §17 contract: a run split at a checkpoint and
# resumed — in a different process, even with a different fast-forward
# setting — is byte-identical to the uninterrupted run.
#
#   1. wgsim --checkpoint-at/--resume: split CSV equals unsplit CSV;
#   2. the split run's --metrics and --trace files equal the unsplit
#      run's byte for byte (cmp AND wgreport --tol 0 --abs-tol 0);
#   3. fast-forward asymmetry: an FF-on capture resumed with
#      --no-fastforward still matches;
#   4. snapshot documents are stable: checkpointing the resumed state
#      at the same cycle reproduces the snapshot bytes;
#   5. corrupt / version-bumped / truncated snapshots are rejected
#      with exit 2 (never a crash);
#   6. daemon jobs survive: wgctl checkpoint on one wgservd, wgctl
#      submit --resume on a second — the resumed job's output is
#      byte-identical and every checkpointed cell is served from the
#      seeded cache.
#
# Usage: ci/checkpoint_e2e.sh [build-dir]   (run from the repo root)
set -euo pipefail

BUILD=${1:-build}
RUN_ARGS=(--bench hotspot --technique WarpedGates --sms 4 --quiet)
# An epoch boundary well inside the run (epochLength default is 1000).
CUT=2000
STEP_TIMEOUT=300

WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill "$DAEMON_PID" 2>/dev/null || true
        wait "$DAEMON_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "checkpoint_e2e: FAIL: $*" >&2
    if [ -f "$WORK/daemon.log" ]; then
        echo "--- daemon log ---" >&2
        cat "$WORK/daemon.log" >&2 || true
    fi
    exit 1
}

start_daemon() {
    local log=$1
    "$BUILD/tools/wgservd" --port 0 --sms 4 \
        --log-file "$WORK/$log" --log-level debug \
        >"$WORK/daemon.log" 2>&1 &
    DAEMON_PID=$!
    PORT=""
    for _ in $(seq 1 100); do
        PORT=$(sed -n \
            's/^wgservd: listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
            "$WORK/daemon.log")
        [ -n "$PORT" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null \
            || fail "daemon died on startup"
        sleep 0.1
    done
    [ -n "$PORT" ] || fail "no listening line after 10s"
}

stop_daemon() {
    timeout "$STEP_TIMEOUT" "$BUILD/tools/wgctl" drain --port "$PORT" \
        || fail "wgctl drain"
    wait "$DAEMON_PID" || fail "daemon exited non-zero after drain"
    DAEMON_PID=""
}

echo "checkpoint_e2e: reference: one uninterrupted observed run"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgsim" "${RUN_ARGS[@]}" \
    --csv "$WORK/whole.csv" --metrics "$WORK/whole.jsonl" \
    --trace "$WORK/whole.trace" \
    || fail "uninterrupted wgsim run"

echo "checkpoint_e2e: gate 1 — capture at cycle $CUT, resume, compare"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgsim" "${RUN_ARGS[@]}" \
    --checkpoint-at "$CUT" --checkpoint "$WORK/run.ckpt.json" \
    --metrics "$WORK/split.jsonl" --trace "$WORK/split.trace" \
    || fail "wgsim --checkpoint-at"
[ -s "$WORK/run.ckpt.json" ] || fail "checkpoint file is empty"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgsim" --quiet \
    --resume "$WORK/run.ckpt.json" --csv "$WORK/split.csv" \
    --metrics "$WORK/split.jsonl" --trace "$WORK/split.trace" \
    || fail "wgsim --resume"
cmp "$WORK/whole.csv" "$WORK/split.csv" \
    || fail "split CSV differs from unsplit (diff: $(
        diff "$WORK/whole.csv" "$WORK/split.csv" | head -10))"

echo "checkpoint_e2e: gate 2 — metrics and trace files byte-identical"
cmp "$WORK/whole.jsonl" "$WORK/split.jsonl" \
    || fail "split metrics file is not byte-identical"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgreport" --tol 0 --abs-tol 0 \
    "$WORK/whole.jsonl" "$WORK/split.jsonl" \
    || fail "split metrics registry drifted at tol 0"
cmp "$WORK/whole.trace" "$WORK/split.trace" \
    || fail "split trace is not byte-identical"

echo "checkpoint_e2e: gate 3 — FF-on capture resumed with FF off"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgsim" "${RUN_ARGS[@]}" \
    --checkpoint-at "$CUT" --checkpoint "$WORK/plain.ckpt.json" \
    || fail "wgsim --checkpoint-at (unobserved)"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgsim" --quiet \
    --no-fastforward --resume "$WORK/plain.ckpt.json" \
    --csv "$WORK/ffoff.csv" \
    || fail "wgsim --resume --no-fastforward"
cmp "$WORK/whole.csv" "$WORK/ffoff.csv" \
    || fail "FF-off resume of an FF-on capture diverged"

echo "checkpoint_e2e: gate 4 — re-checkpointing reproduces the bytes"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgsim" --quiet \
    --resume "$WORK/plain.ckpt.json" --checkpoint-at "$CUT" \
    --checkpoint "$WORK/again.ckpt.json" \
    || fail "wgsim --resume --checkpoint-at (re-checkpoint)"
cmp "$WORK/plain.ckpt.json" "$WORK/again.ckpt.json" \
    || fail "re-checkpoint at the same cycle changed the snapshot bytes"

echo "checkpoint_e2e: gate 5 — malformed snapshots are rejected (exit 2)"
expect_reject() {
    local what=$1 file=$2
    local rc=0
    "$BUILD/tools/wgsim" --quiet --resume "$file" \
        >/dev/null 2>"$WORK/reject.err" || rc=$?
    [ "$rc" -eq 2 ] \
        || fail "$what: expected exit 2, got $rc ($(cat "$WORK/reject.err"))"
    [ -s "$WORK/reject.err" ] || fail "$what: no error message"
}
head -c 512 "$WORK/plain.ckpt.json" >"$WORK/truncated.ckpt.json"
expect_reject "truncated snapshot" "$WORK/truncated.ckpt.json"
sed 's/"wire":2/"wire":9/' "$WORK/plain.ckpt.json" \
    >"$WORK/future.ckpt.json"
expect_reject "future schema version" "$WORK/future.ckpt.json"
sed 's/"technique":"WarpedGates"/"technique":"WarpedGoats"/' \
    "$WORK/plain.ckpt.json" >"$WORK/corrupt.ckpt.json"
expect_reject "corrupt technique" "$WORK/corrupt.ckpt.json"
expect_reject "missing file" "$WORK/does-not-exist.json"

echo "checkpoint_e2e: gate 6 — daemon job checkpoint/resume"
start_daemon events_first.jsonl
echo "checkpoint_e2e: first daemon up on port $PORT"
SWEEP=(--bench hotspot,bfs --technique Baseline,WarpedGates --sms 4)
# First submit returns the id for the checkpoint; the same-sweep
# resubmission dedups onto the running job and waits for the results.
JOB=$(timeout "$STEP_TIMEOUT" "$BUILD/tools/wgctl" submit \
    --port "$PORT" "${SWEEP[@]}") \
    || fail "wgctl submit (first daemon)"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgctl" submit --port "$PORT" \
    "${SWEEP[@]}" --wait --quiet --csv "$WORK/job_first.csv" \
    || fail "wgctl submit --wait (first daemon)"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgctl" checkpoint --port "$PORT" \
    --id "$JOB" --out "$WORK/job.ckpt.json" \
    || fail "wgctl checkpoint"
grep -q '"type":"jobSnapshot"' "$WORK/job.ckpt.json" \
    || fail "job snapshot missing its envelope"
stop_daemon

start_daemon events_second.jsonl
echo "checkpoint_e2e: second daemon up on port $PORT"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgctl" submit --port "$PORT" \
    --resume "$WORK/job.ckpt.json" --wait --quiet \
    --csv "$WORK/job_resumed.csv" \
    || fail "wgctl submit --resume"
cmp "$WORK/job_first.csv" "$WORK/job_resumed.csv" \
    || fail "resumed job results differ (diff: $(
        diff "$WORK/job_first.csv" "$WORK/job_resumed.csv" | head -10))"
grep -q '"event":"cellsSeeded"' "$WORK/events_second.jsonl" \
    || fail "second daemon never seeded the checkpointed cells"
STATS=$(timeout "$STEP_TIMEOUT" "$BUILD/tools/wgctl" stats \
    --port "$PORT") || fail "wgctl stats"
echo "$STATS" | grep -E 'serve\.cache\.misses +0\b' >/dev/null \
    || fail "resume recomputed cells instead of using the seeded cache ($STATS)"
echo "$STATS" | grep -E 'serve\.cache\.hits +4\b' >/dev/null \
    || fail "resume did not serve all 4 checkpointed cells from the seeded cache ($STATS)"
stop_daemon

echo "checkpoint_e2e: PASS"

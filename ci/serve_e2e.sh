#!/usr/bin/env bash
# End-to-end serving smoke for CI.
#
# Starts wgservd on an ephemeral loopback port, submits the hotspot /
# WarpedGates sweep through wgctl, and holds the serving path to the
# offline contract:
#
#   1. wgctl's stdout is byte-identical to the offline wgsim run;
#   2. the streamed metrics registry matches the committed baseline
#      (ci/metrics-baseline-hotspot.jsonl) at wgreport --tol 0 --abs-tol 0;
#   3. the streamed registry matches a fresh offline --metrics export
#      at --tol 0 --abs-tol 0;
#   4. `wgctl watch` of a live job re-exports the streamed epoch frames
#      byte-identical (cmp AND wgreport --tol 0 --abs-tol 0) to the offline
#      `wgsim --metrics` export of the same cell;
#   5. the daemon's structured event log records the job life cycle;
#   6. drain finishes in-flight work, then the daemon exits 0.
#
# Usage: ci/serve_e2e.sh [build-dir]   (run from the repo root)
set -euo pipefail

BUILD=${1:-build}
BASELINE=ci/metrics-baseline-hotspot.jsonl
# The baseline was recorded at --sms 4 (see ci.yml's wgsim smoke).
SWEEP_ARGS=(--bench hotspot --technique WarpedGates --sms 4)
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
    echo "serve_e2e: FAIL: $*" >&2
    echo "--- daemon log ---" >&2
    cat "$WORK/daemon.log" >&2 || true
    exit 1
}

echo "serve_e2e: starting wgservd on an ephemeral port"
"$BUILD/tools/wgservd" --port 0 --sms 4 \
    --log-file "$WORK/events.jsonl" --log-level debug \
    >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

# The startup line's format is stable on purpose; parse the bound port.
PORT=""
for _ in $(seq 1 100); do
    PORT=$(sed -n \
        's/^wgservd: listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
        "$WORK/daemon.log")
    [ -n "$PORT" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on startup"
    sleep 0.1
done
[ -n "$PORT" ] || fail "no listening line after 10s"
echo "serve_e2e: daemon up on port $PORT (pid $DAEMON_PID)"

echo "serve_e2e: submitting hotspot sweep via wgctl"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgctl" submit --port "$PORT" \
    "${SWEEP_ARGS[@]}" --wait --metrics "$WORK/served.jsonl" \
    >"$WORK/served.txt" \
    || fail "wgctl submit --wait"

echo "serve_e2e: running the identical sweep offline"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgsim" "${SWEEP_ARGS[@]}" \
    --metrics "$WORK/offline.jsonl" >"$WORK/offline.txt" \
    || fail "offline wgsim"

echo "serve_e2e: gate 1 — served stdout is byte-identical to offline"
cmp "$WORK/served.txt" "$WORK/offline.txt" \
    || fail "served summary differs from offline wgsim (diff: $(
        diff "$WORK/offline.txt" "$WORK/served.txt" | head -20))"

echo "serve_e2e: gate 2 — served registry vs committed baseline, tol 0"
"$BUILD/tools/wgreport" --tol 0 --abs-tol 0 "$BASELINE" "$WORK/served.jsonl" \
    || fail "served metrics drifted from $BASELINE"

echo "serve_e2e: gate 3 — served registry vs fresh offline export, tol 0"
"$BUILD/tools/wgreport" --tol 0 --abs-tol 0 "$WORK/offline.jsonl" \
    "$WORK/served.jsonl" \
    || fail "served metrics differ from offline --metrics export"

echo "serve_e2e: gate 4 — live watch is byte-identical to offline"
# A distinct cell (different technique) so the submission cannot dedup
# onto the finished WarpedGates job: the watch rides the live stream.
WATCH_ARGS=(--bench hotspot --technique GATES --sms 4)
WATCH_ID=$(timeout "$STEP_TIMEOUT" "$BUILD/tools/wgctl" submit \
    --port "$PORT" "${WATCH_ARGS[@]}") \
    || fail "wgctl submit (watch job)"
echo "serve_e2e: watching job $WATCH_ID live"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgctl" watch --port "$PORT" \
    --id "$WATCH_ID" --metrics "$WORK/watch_live.jsonl" \
    >"$WORK/watch.txt" \
    || fail "wgctl watch (output: $(cat "$WORK/watch.txt"))"
grep -q "^$WATCH_ID done" "$WORK/watch.txt" \
    || fail "watch output missing terminal 'done' line"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgsim" "${WATCH_ARGS[@]}" \
    --metrics "$WORK/watch_offline.jsonl" >/dev/null \
    || fail "offline wgsim (watch reference)"
cmp "$WORK/watch_live.jsonl" "$WORK/watch_offline.jsonl" \
    || fail "streamed epoch series is not byte-identical to offline (diff: $(
        diff "$WORK/watch_offline.jsonl" "$WORK/watch_live.jsonl" \
        | head -10))"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgreport" --tol 0 --abs-tol 0 \
    "$WORK/watch_offline.jsonl" "$WORK/watch_live.jsonl" \
    || fail "streamed final registry drifted from offline at tol 0"

echo "serve_e2e: gate 5 — event log recorded the job life cycle"
[ -s "$WORK/events.jsonl" ] || fail "--log-file produced no events"
for event in jobSubmitted jobStarted jobFinished subscribed; do
    grep -q "\"event\":\"$event\"" "$WORK/events.jsonl" \
        || fail "event log missing '$event' (log: $(
            head -20 "$WORK/events.jsonl"))"
done

echo "serve_e2e: gate 6 — drain shuts the daemon down cleanly"
timeout "$STEP_TIMEOUT" "$BUILD/tools/wgctl" drain --port "$PORT" \
    || fail "wgctl drain"
DAEMON_RC=0
wait "$DAEMON_PID" || DAEMON_RC=$?
DAEMON_PID=""
[ "$DAEMON_RC" -eq 0 ] || fail "daemon exited $DAEMON_RC after drain"
grep -q "drained, exiting" "$WORK/daemon.log" \
    || fail "daemon log missing drain acknowledgement"

echo "serve_e2e: PASS"

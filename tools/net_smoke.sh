#!/usr/bin/env bash
# Integration smoke for the ds::net serving front-end (run by CI).
#
# Starts ds_served with the built-in demo sketch on an ephemeral loopback
# port, drives it with dsctl netload (pipelined binary protocol) for a few
# seconds, scrapes GET /metrics over HTTP, and asserts the serve-layer
# accounting invariant from the scrape:
#
#   ds_serve_submitted_total == ds_serve_completed_total
#                                + ds_serve_failed_total
#
# (rejected requests never enter the queue, so they are absent from both
# sides; ds_served itself additionally exits nonzero if the wire-level
# ds_net_requests_total != sum of ds_net_responses_total).
#
# First, before the daemon starts, checks that a port past 65535 is a
# usage error (exit 2) for both ds_served listen= and dsctl netload, not
# silently truncated to 16 bits. Also exercises the admin status plane (/healthz, /readyz, /statusz,
# /tracez), validates `dsctl trace export` output with `dsctl jsoncheck`,
# dumps the flight recorder via SIGUSR1, and checks the drain-aware
# /readyz transition after SIGTERM.
#
# Usage: tools/net_smoke.sh <build-dir> [seconds]

set -euo pipefail

BUILD_DIR=${1:?usage: net_smoke.sh <build-dir> [seconds]}
SECONDS_LOAD=${2:-5}
DS_SERVED="$BUILD_DIR/tools/ds_served"
DSCTL="$BUILD_DIR/tools/dsctl"
LOG=$(mktemp)

cleanup() {
  if [[ -n "${SERVER_PID:-}" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -f "$LOG"
}
trap cleanup EXIT

# Runs "$@" and fails the smoke unless it exits 2. The timeout turns a
# daemon that wrongly starts serving into a failure instead of a hang.
expect_exit_2() {
  local out code=0
  out=$(timeout 60 "$@" 2>&1) || code=$?
  if [[ "$code" -ne 2 ]]; then
    echo "FAIL: '$*' exited $code, expected 2:" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "   $out"
}

echo "== bad host:port arguments exit 2"
# demo=imdb gives the daemon something to serve, so only the port is wrong.
expect_exit_2 "$DS_SERVED" demo=imdb listen=127.0.0.1:99999
expect_exit_2 "$DSCTL" netload 127.0.0.1:99999 demo

echo "== starting ds_served (demo sketch, ephemeral port)"
"$DS_SERVED" demo=imdb listen=127.0.0.1:0 workers=2 trace=8 \
  drain_ms=1500 >"$LOG" 2>&1 &
SERVER_PID=$!

# The daemon prints "ds_served: listening on HOST:PORT (...)" once ready.
PORT=""
for _ in $(seq 1 120); do
  PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$LOG" | head -1)
  [[ -n "$PORT" ]] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "ds_served died during startup:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 1
done
if [[ -z "$PORT" ]]; then
  echo "ds_served never reported its port:" >&2
  cat "$LOG" >&2
  exit 1
fi
echo "== ds_served listening on 127.0.0.1:$PORT"

# trace=64: client-side sampling ships trace contexts over the wire, so
# the exported traces below include the server's net_* spans.
echo "== driving $SECONDS_LOAD s of networked load"
"$DSCTL" netload "127.0.0.1:$PORT" demo \
  threads=4 depth=4 "seconds=$SECONDS_LOAD" trace=64

echo "== scraping /metrics"
METRICS=$(curl -sf "http://127.0.0.1:$PORT/metrics")
echo "$METRICS" | grep -E '^ds_(net|serve)_' | head -30

counter() {
  echo "$METRICS" | awk -v n="$1" '$1 == n { print int($2); exit }'
}

SUBMITTED=$(counter ds_serve_submitted_total)
COMPLETED=$(counter ds_serve_completed_total)
FAILED=$(counter ds_serve_failed_total)
echo "== submitted=$SUBMITTED completed=$COMPLETED failed=$FAILED"
if [[ -z "$SUBMITTED" || "$SUBMITTED" -eq 0 ]]; then
  echo "FAIL: no requests reached the serving layer" >&2
  exit 1
fi
if [[ "$SUBMITTED" -ne $((COMPLETED + FAILED)) ]]; then
  echo "FAIL: submitted != completed + failed in live scrape" >&2
  exit 1
fi

echo "== admin status plane"
HEALTH=$(curl -sf "http://127.0.0.1:$PORT/healthz")
if [[ "$HEALTH" != "ok" ]]; then
  echo "FAIL: /healthz said '$HEALTH', expected 'ok'" >&2
  exit 1
fi
READY=$(curl -sf "http://127.0.0.1:$PORT/readyz")
if [[ "$READY" != "ready" ]]; then
  echo "FAIL: /readyz said '$READY', expected 'ready'" >&2
  exit 1
fi
curl -sf "http://127.0.0.1:$PORT/statusz" | "$DSCTL" jsoncheck
curl -sf "http://127.0.0.1:$PORT/statusz?format=text" | head -5
curl -sf "http://127.0.0.1:$PORT/tracez" | "$DSCTL" jsoncheck
"$DSCTL" top "127.0.0.1:$PORT" iters=1 >/dev/null

echo "== trace export (Chrome trace-event JSON)"
TRACE_JSON=$(mktemp)
"$DSCTL" trace export "127.0.0.1:$PORT" "out=$TRACE_JSON"
"$DSCTL" jsoncheck "$TRACE_JSON"
if ! grep -q '"traceEvents"' "$TRACE_JSON"; then
  echo "FAIL: trace export has no traceEvents array" >&2
  exit 1
fi
if ! grep -q 'net_decode' "$TRACE_JSON"; then
  echo "FAIL: trace export retained no server-side spans" >&2
  exit 1
fi
rm -f "$TRACE_JSON"

echo "== flight recorder dump (SIGUSR1)"
kill -USR1 "$SERVER_PID"
for _ in $(seq 1 50); do
  grep -q '== flight recorder' "$LOG" && break
  sleep 0.1
done
if ! grep -q '== flight recorder' "$LOG"; then
  echo "FAIL: SIGUSR1 produced no flight recorder dump" >&2
  cat "$LOG" >&2
  exit 1
fi

echo "== graceful shutdown (SIGTERM) with drain-aware /readyz"
kill -TERM "$SERVER_PID"
DRAIN_CODE=""
for _ in $(seq 1 10); do
  DRAIN_CODE=$(curl -s -o /dev/null -w '%{http_code}' \
    "http://127.0.0.1:$PORT/readyz" || true)
  [[ "$DRAIN_CODE" == "503" ]] && break
  sleep 0.1
done
if [[ "$DRAIN_CODE" != "503" ]]; then
  echo "FAIL: /readyz never flipped to 503 during the drain window" \
       "(last code: '$DRAIN_CODE')" >&2
  exit 1
fi
if ! wait "$SERVER_PID"; then
  echo "FAIL: ds_served exited nonzero (request/response imbalance):" >&2
  cat "$LOG" >&2
  exit 1
fi
SERVER_PID=""
tail -5 "$LOG"
echo "== net smoke OK"

#!/usr/bin/env bash
# End-to-end smoke test for the experiment daemon (`spade-cli serve`):
# starts a real daemon on an OS-assigned port, drives it with
# `spade-cli client`, and checks the robustness contract from the
# outside — cold run, byte-identical cache hit, malformed-frame
# rejection, a concurrent burst, a SIGTERM drain that exits 0, and a
# restart on the same cache directory whose catalog lists the cached run.
#
# Usage: scripts/serve_smoke.sh [path-to-spade-cli]
# The cache directory is kept on failure (its path is printed) so CI can
# upload it as an artifact for postmortem.
set -euo pipefail
cd "$(dirname "$0")/.."

CLI=${1:-./target/release/spade-cli}
if [ ! -x "$CLI" ]; then
  echo "== building release spade-cli"
  cargo build --release -q -p spade-cli
fi

CACHE_DIR=$(mktemp -d /tmp/spade_serve_smoke.XXXXXX)
LOG="$CACHE_DIR/serve.log"
DAEMON_PID=""

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  echo "--- daemon log ---" >&2
  cat "$LOG" >&2 || true
  echo "--- cache dir kept at $CACHE_DIR ---" >&2
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  exit 1
}

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
}
trap cleanup EXIT

# Starts a daemon on the cache directory, logging to $LOG (truncated),
# and sets DAEMON_PID and ADDR from its banner line.
start_daemon() {
  "$CLI" serve --addr 127.0.0.1:0 --cache-dir "$CACHE_DIR" \
    --read-timeout-ms 50 >"$LOG" &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$LOG" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died before banner"
    sleep 0.05
  done
  ADDR=$(head -n1 "$LOG" | sed -n 's/.*"serving":"\([^"]*\)".*/\1/p')
  [ -n "$ADDR" ] || fail "no serving address in banner: $(head -n1 "$LOG")"
  echo "   daemon at $ADDR"
}

# SIGTERM must drain and exit 0 with a summary line.
stop_daemon() {
  kill -TERM "$DAEMON_PID"
  if ! wait "$DAEMON_PID"; then
    DAEMON_PID=""
    fail "daemon did not exit 0 on SIGTERM"
  fi
  DAEMON_PID=""
  SUMMARY=$(tail -n1 "$LOG")
  case "$SUMMARY" in *'"served_ok"'*) ;; *) fail "no summary line: $SUMMARY" ;; esac
}

echo "== starting daemon (port 0, cache at $CACHE_DIR)"
start_daemon

client() { "$CLI" client --addr "$ADDR" --request "$1"; }

echo "== ping"
PING=$(client '{"cmd":"ping"}')
case "$PING" in *'"ok":true'*) ;; *) fail "ping: $PING" ;; esac

echo "== cold run (must simulate)"
REQ='{"cmd":"run","benchmark":"myc","k":16,"pes":4,"scale":"tiny"}'
COLD=$(client "$REQ")
case "$COLD" in *'"cached":false'*) ;; *) fail "cold run not fresh: $COLD" ;; esac

echo "== warm run (must hit the cache, byte-identical result)"
WARM=$(client "$REQ")
case "$WARM" in *'"cached":true'*) ;; *) fail "warm run not cached: $WARM" ;; esac
# Everything after "result": must match byte for byte.
[ "${COLD#*\"result\":}" = "${WARM#*\"result\":}" ] || fail "cache hit diverged from fresh run"

echo "== metrics scrape (request and cache counters must be live)"
METRICS_OUT=${METRICS_OUT:-/tmp/spade_serve_metrics.json}
"$CLI" client metrics --addr "$ADDR" --format json >"$METRICS_OUT" \
  || fail "metrics request failed"
# After the cold+warm pair: two ok run requests, one cache hit.
PROM=$("$CLI" client metrics --addr "$ADDR" --prom) || fail "prom render failed"
case "$PROM" in *'spade_requests_total{cmd="run",outcome="ok"} 2'*) ;; *) fail "run counter not at 2 after warm pass: $PROM" ;; esac
case "$PROM" in *'spade_cache_hits_total 1'*) ;; *) fail "cache hit counter not at 1 after warm pass: $PROM" ;; esac
echo "   snapshot written to $METRICS_OUT"

echo "== dataset query (catalog must list the cached run)"
QUERY=$("$CLI" client query --addr "$ADDR" --benchmark myc --kind run --format json) \
  || fail "query request failed"
case "$QUERY" in *'"matched":1'*) ;; *) fail "query did not find the cached run: $QUERY" ;; esac

echo "== batch sweep (one request, per-job outcomes; myc is already warm)"
BATCH=$("$CLI" client batch --addr "$ADDR" --benchmarks myc,pac \
  --k 16 --pes 4 --scale tiny --format json) || fail "batch request failed"
case "$BATCH" in *'"total":2'*) ;; *) fail "batch total != 2: $BATCH" ;; esac
case "$BATCH" in *'"succeeded":2'*) ;; *) fail "batch jobs failed: $BATCH" ;; esac
case "$BATCH" in *'"cached":1'*) ;; *) fail "warm myc job was not a cache hit: $BATCH" ;; esac
PROM=$("$CLI" client metrics --addr "$ADDR" --prom) || fail "prom render failed"
case "$PROM" in *'spade_batch_jobs_total{outcome="ok"} 1'*) ;; *) fail "batch ok counter not at 1: $PROM" ;; esac
case "$PROM" in *'spade_batch_jobs_total{outcome="cached"} 1'*) ;; *) fail "batch cached counter not at 1: $PROM" ;; esac

echo "== aggregation (server-side group-by over the cache dataset)"
AGG=$("$CLI" client agg --addr "$ADDR" --group-by benchmark --kind run --format json) \
  || fail "agg request failed"
case "$AGG" in *'"groups_matched":2'*) ;; *) fail "agg groups != 2: $AGG" ;; esac
case "$AGG" in *'"best":'*) ;; *) fail "agg groups carry no best entry: $AGG" ;; esac
"$CLI" client best-plans --addr "$ADDR" >/dev/null || fail "best-plans failed"

echo "== advise (plan selection on the connection thread, counted by tier)"
ADVISE=$("$CLI" client advise --addr "$ADDR" --benchmark myc --k 16 --pes 4 \
  --scale tiny --format json) || fail "advise request failed"
# No --model was passed to serve, so the heuristic tier must answer.
case "$ADVISE" in *'"source":"heuristic"'*) ;; *) fail "advise did not fall back to heuristic: $ADVISE" ;; esac
case "$ADVISE" in *'"row_panel_size"'*) ;; *) fail "advise reply carries no plan: $ADVISE" ;; esac
PROM=$("$CLI" client metrics --addr "$ADDR" --prom) || fail "prom render failed"
case "$PROM" in *'spade_advise_total{source="heuristic"} 1'*) ;; *) fail "advise counter not at 1: $PROM" ;; esac
case "$PROM" in *'spade_advise_latency_microseconds_count 1'*) ;; *) fail "advise latency histogram empty: $PROM" ;; esac

echo "== malformed frame (daemon answers, stays up, client exits 1)"
if BAD=$(client 'this is not json'); then
  fail "malformed frame did not fail the client: $BAD"
fi
PING=$(client '{"cmd":"ping"}') || fail "daemon down after malformed frame"

echo "== concurrent burst (daemon keeps answering)"
BURST_PIDS=""
for i in $(seq 1 8); do
  client "{\"cmd\":\"run\",\"benchmark\":\"kro\",\"k\":16,\"pes\":4,\"no_cache\":true,\"id\":$i}" \
    >/dev/null 2>&1 &
  BURST_PIDS="$BURST_PIDS $!"
done
for pid in $BURST_PIDS; do wait "$pid" || true; done
STATUS=$(client '{"cmd":"status"}')
case "$STATUS" in *'"ok":true'*) ;; *) fail "status after burst: $STATUS" ;; esac

echo "== SIGTERM (drain, exit 0)"
stop_daemon
case "$SUMMARY" in *'"metrics"'*) ;; *) fail "summary has no metrics snapshot: $SUMMARY" ;; esac

echo "== restart on the same cache (catalog rebuilt from the entries)"
start_daemon
QUERY=$("$CLI" client query --addr "$ADDR" --benchmark myc --kind run --format json) \
  || fail "query after restart failed"
case "$QUERY" in *'"matched":1'*) ;; *) fail "restarted catalog lost the cached run: $QUERY" ;; esac
stop_daemon

rm -rf "$CACHE_DIR"
echo "serve_smoke: all checks passed."

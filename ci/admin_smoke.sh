#!/usr/bin/env bash
# End-to-end smoke test of the admin endpoint and the workload-capture
# loop, as run by the admin-smoke CI job:
#
#   1. start flexpath_cli on a generated XMark corpus with --admin-port 0
#      (ephemeral), --query-log, and --crash-dump, keeping the REPL's
#      stdin open on a FIFO
#   2. poll /healthz until the endpoint answers, then exercise every
#      route and validate /metrics with ci/check_prometheus.py
#   3. push a burst of queries through the REPL and assert that
#      /timeseriesz reports a nonzero qps over the window, that /varz
#      accounts every query, and that every query landed in the
#      JSON-lines log
#   4. SIGTERM the CLI and assert the graceful path: exit code 143 and a
#      flight-recorder dump written through the normal (non-signal-safe)
#      serializer
#   5. re-execute the captured log with flexpath_replay --check, which
#      exits nonzero unless every answer set is byte-identical
#
# Usage: ci/admin_smoke.sh [BUILD_DIR] [OUT_DIR]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-admin-smoke-out}"
CLI="$BUILD_DIR/examples/flexpath_cli"
REPLAY="$BUILD_DIR/examples/flexpath_replay"
XMARK_MB=2

fail() { echo "admin_smoke: FAIL: $*" >&2; exit 1; }

[ -x "$CLI" ] || fail "missing $CLI (build the examples target first)"
[ -x "$REPLAY" ] || fail "missing $REPLAY"

mkdir -p "$OUT_DIR"
QUERY_LOG="$OUT_DIR/query_log.jsonl"
CRASH_DUMP="$OUT_DIR/flight_recorder.json"
STDERR_LOG="$OUT_DIR/cli_stderr.log"
METRICS_TXT="$OUT_DIR/metrics.txt"
REPLAY_REPORT="$OUT_DIR/replay_report.json"
rm -f "$QUERY_LOG" "$CRASH_DUMP"

FIFO="$OUT_DIR/repl_stdin.fifo"
rm -f "$FIFO"; mkfifo "$FIFO"

"$CLI" --xmark "$XMARK_MB" --admin-port 0 --query-log "$QUERY_LOG" \
  --crash-dump "$CRASH_DUMP" <"$FIFO" >"$OUT_DIR/cli_stdout.log" \
  2>"$STDERR_LOG" &
CLI_PID=$!
# Keep the FIFO's write end open for the whole test so the REPL does not
# see EOF between bursts.
exec 3>"$FIFO"
cleanup() {
  exec 3>&- || true
  kill "$CLI_PID" 2>/dev/null || true
  rm -f "$FIFO"
}
trap cleanup EXIT

# The CLI prints "admin endpoint: http://127.0.0.1:PORT/" once the
# listener is up; poll for it, then for /healthz.
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's#.*admin endpoint: http://[^:]*:\([0-9]*\)/.*#\1#p' \
    "$STDERR_LOG" | head -n1)
  [ -n "$PORT" ] && break
  kill -0 "$CLI_PID" 2>/dev/null || fail "CLI exited early: $(cat "$STDERR_LOG")"
  sleep 0.1
done
[ -n "$PORT" ] || fail "admin endpoint never announced a port"
BASE="http://127.0.0.1:$PORT"

for _ in $(seq 1 100); do
  curl -fsS --max-time 2 "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' || fail "/healthz not ok"
echo "admin_smoke: /healthz ok on port $PORT"

# Every route answers 200 and nontrivial JSON (or Prometheus text).
for route in /buildz /statsz /statsz?recent=2 /varz /cachez /tracez \
             /flightrecz "/timeseriesz?window=60"; do
  BODY=$(curl -fsS "$BASE$route") || fail "GET $route failed"
  [ -n "$BODY" ] || fail "GET $route returned an empty body"
done
CODE=$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/definitely-not-a-route")
[ "$CODE" = "404" ] || fail "unknown route returned $CODE, expected 404"

# Prometheus exposition: correct content type and a structurally valid
# scrape (name syntax, le monotonicity, +Inf == _count).
curl -fsS -D "$OUT_DIR/metrics_headers.txt" "$BASE/metrics" >"$METRICS_TXT"
grep -qi 'content-type: text/plain; version=0.0.4' \
  "$OUT_DIR/metrics_headers.txt" || fail "/metrics content type wrong"
python3 "$(dirname "$0")/check_prometheus.py" "$METRICS_TXT" \
  || fail "/metrics failed exposition validation"

# Query burst through the REPL; each Append flushes, so the log file is
# the barrier to wait on.
QUERIES=(
  '//item[./name and .contains("gold")]'
  '//person[./name]'
  '//item[./payment]'
  '//item[./name and .contains("gold")]'
)
for q in "${QUERIES[@]}"; do echo "$q" >&3; done
for _ in $(seq 1 100); do
  [ -f "$QUERY_LOG" ] && [ "$(wc -l <"$QUERY_LOG")" -ge "${#QUERIES[@]}" ] \
    && break
  sleep 0.1
done
LINES=$(wc -l <"$QUERY_LOG")
[ "$LINES" -ge "${#QUERIES[@]}" ] \
  || fail "query log has $LINES lines, expected ${#QUERIES[@]}"
echo "admin_smoke: captured $LINES queries"

# The background sampler (1s interval) needs to see the burst; then the
# windowed rates must be nonzero — the zero-traffic guard must not have
# zeroed out real traffic.
sleep 2.5
TS=$(curl -fsS "$BASE/timeseriesz?window=300")
echo "$TS" | python3 -c '
import json, sys
ts = json.load(sys.stdin)
qps = ts["derived"]["qps"]
samples = ts["samples"]
window_s = ts["window_s"]
assert qps > 0, "qps=%r after a query burst" % qps
assert samples >= 2, "samples=%r" % samples
assert "query.count" in ts["series"], "query.count series missing"
print("admin_smoke: /timeseriesz qps=%.3f over %ss" % (qps, window_s))
' || fail "/timeseriesz rates not live after traffic"

# /statsz?recent honors the cap and carries the burst.
curl -fsS "$BASE/statsz?recent=2" | python3 -c '
import json, sys
stats = json.load(sys.stdin)
assert len(stats["recent"]) <= 2, "recent=%d" % len(stats["recent"])
assert stats["shapes"], "no shape aggregates after traffic"
' || fail "/statsz?recent=2 malformed"

# /varz folds every successful query's cpu_ms and work counters.
curl -fsS "$BASE/varz" | python3 -c '
import json, sys
v = json.load(sys.stdin)
assert v["queries"] >= 4, "queries=%r" % v["queries"]
assert v["errors"] == 0, "errors=%r" % v["errors"]
assert v["cpu_ms_total"] > 0, "cpu_ms_total=%r" % v["cpu_ms_total"]
passes = v["counters_total"]["plan_passes"]
assert passes >= 4, "counters_total.plan_passes=%r" % passes
print("admin_smoke: /varz queries=%d plan_passes=%d cpu_ms=%.3f"
      % (v["queries"], passes, v["cpu_ms_total"]))
' || fail "/varz does not account the burst"

# Graceful shutdown: SIGTERM must land as exit 128+15 and leave a
# flight-recorder dump written by the normal serializer, not the
# async-signal-safe crash path.
kill -TERM "$CLI_PID"
WAIT_RC=0
wait "$CLI_PID" || WAIT_RC=$?
[ "$WAIT_RC" -eq 143 ] || fail "expected exit 143 on SIGTERM, got $WAIT_RC"
[ -s "$CRASH_DUMP" ] || fail "no flight-recorder dump at $CRASH_DUMP"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$CRASH_DUMP" \
  || fail "flight-recorder dump is not valid JSON"
echo "admin_smoke: graceful SIGTERM dump ok"

# Replay the captured workload against a freshly generated (same seed)
# corpus: --check exits nonzero on any digest mismatch.
"$REPLAY" --log "$QUERY_LOG" --xmark "$XMARK_MB" --check \
  --out "$REPLAY_REPORT" || fail "replay reported mismatches"
python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))
assert r["digest_mismatches"] == 0, r
assert r["replayed"] == r["records"], r
print("admin_smoke: replayed %d queries, all digests match" % r["replayed"])
' "$REPLAY_REPORT"

echo "admin_smoke: PASS"

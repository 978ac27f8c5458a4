#!/usr/bin/env bash
# End-to-end smoke test of the admin endpoint and the workload-capture
# loop, as run by the admin-smoke CI job:
#
#   0. assert that an unknown flag, a retired --stats-* flag, an
#      out-of-range port and a negative budget are usage errors (exit 2),
#      and pin the static analyzer's --check / --check-json / :lint
#      output byte for byte
#   1. start flexpath_cli on a generated XMark corpus with --admin-port 0
#      (ephemeral) and --query-log, keeping the REPL's stdin open on a
#      FIFO
#   2. poll /healthz until the endpoint answers, then exercise every
#      route, check that retired routes are 404, that /statsz refuses a
#      recent=N that is not a number, and validate /metrics with
#      ci/check_prometheus.py
#   3. push a burst of queries through the REPL and assert that a
#      /metrics scrape counts them and their cpu_ms and work counters,
#      and that every query landed in the JSON-lines log
#   4. SIGTERM the CLI and assert the graceful path: exit code 143
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
STDERR_LOG="$OUT_DIR/cli_stderr.log"
METRICS_TXT="$OUT_DIR/metrics.txt"
REPLAY_REPORT="$OUT_DIR/replay_report.json"
rm -f "$QUERY_LOG"

# An argument that starts with -- and matches no flag is a usage error,
# not a document path.
RC=0
"$CLI" --crash-dump x --xmark 1 >/dev/null 2>"$OUT_DIR/unknown_flag.log" \
  || RC=$?
[ "$RC" -eq 2 ] || fail "unknown flag exited $RC, expected 2"
grep -q '^unknown flag --crash-dump$' "$OUT_DIR/unknown_flag.log" \
  || fail "unknown flag not named: $(cat "$OUT_DIR/unknown_flag.log")"
grep -q '^usage: ' "$OUT_DIR/unknown_flag.log" \
  || fail "unknown flag printed no usage line"
echo "admin_smoke: unknown flag rejected with exit 2"

# The stats capacities are constants now; their old flags are unknown.
RC=0
"$CLI" --stats-ring 5 --xmark 1 >/dev/null 2>"$OUT_DIR/retired_flag.log" \
  || RC=$?
[ "$RC" -eq 2 ] || fail "--stats-ring exited $RC, expected 2"
grep -q '^unknown flag --stats-ring$' "$OUT_DIR/retired_flag.log" \
  || fail "--stats-ring not refused: $(cat "$OUT_DIR/retired_flag.log")"
echo "admin_smoke: retired --stats-ring rejected as an unknown flag"

# A numeric flag value out of range or not a number is a usage error too,
# not silently wrapped or zeroed.
for args in "--admin-port 70000" "--admin-port abc" "--max-tuples -1"; do
  RC=0
  # shellcheck disable=SC2086  # $args is two words on purpose
  "$CLI" $args --xmark 1 >/dev/null 2>"$OUT_DIR/bad_value.log" || RC=$?
  [ "$RC" -eq 2 ] || fail "$args exited $RC, expected 2"
  grep -q "^${args%% *}: expected " "$OUT_DIR/bad_value.log" \
    || fail "$args: flag not named: $(cat "$OUT_DIR/bad_value.log")"
  grep -q '^usage: ' "$OUT_DIR/bad_value.log" \
    || fail "$args printed no usage line"
done
echo "admin_smoke: out-of-range numeric flags rejected with exit 2"

# The static analyzer: --check prints one diagnostic per line and exits
# 1 on an error, --check-json prints the report as one JSON object. Both
# outputs are pinned byte for byte.
RC=0
"$CLI" --xmark 1 --check '//item/ghosttag' >"$OUT_DIR/check_ghost.txt" \
  2>/dev/null || RC=$?
[ "$RC" -eq 1 ] || fail "--check of a ghost tag exited $RC, expected 1"
diff - "$OUT_DIR/check_ghost.txt" <<'EXPECTED' \
  || fail "--check of a ghost tag printed other diagnostics"
error [FX101] tag <ghosttag> matches no element in the corpus at $2 (/item/ghosttag)
error [FX103] no <item> has a <ghosttag> child anywhere in the corpus at $2 (/item/ghosttag)
EXPECTED
RC=0
"$CLI" --xmark 1 --check-json '//item[./name and .contains("gold")]' \
  >"$OUT_DIR/check_clean.json" 2>/dev/null || RC=$?
[ "$RC" -eq 0 ] || fail "--check-json of a clean query exited $RC, expected 0"
diff - "$OUT_DIR/check_clean.json" <<'EXPECTED' \
  || fail "--check-json of a clean query printed diagnostics"
{"errors":0,"warnings":0,"unsatisfiable":false,"diagnostics":[]}
EXPECTED
RC=0
"$CLI" --xmark 1 \
  --check '//item[.contains("gold")]//description[.contains("gold")]' \
  >"$OUT_DIR/check_redundant.txt" 2>/dev/null || RC=$?
[ "$RC" -eq 0 ] || fail "--check of a redundant contains exited $RC, expected 0"
diff - "$OUT_DIR/check_redundant.txt" <<'EXPECTED' \
  || fail "--check of a redundant contains printed another warning"
warning [FX201] predicate contains($1,"gold") is implied by the rest of the query; dropping it is a no-op relaxation at $1 (/item)
EXPECTED
# :lint checks the query the engine runs: a word absent from the corpus
# is not reported empty once a synonym that occurs expands it.
printf ':synonym zyzzyva gold\n:lint //item[.contains("zyzzyva")]\n' \
  | "$CLI" --xmark 1 >"$OUT_DIR/lint_synonym.txt" 2>/dev/null \
  || fail "REPL :synonym / :lint run failed"
grep -qx 'flexpath> no diagnostics' "$OUT_DIR/lint_synonym.txt" \
  || fail ":lint after :synonym: $(cat "$OUT_DIR/lint_synonym.txt")"
echo "admin_smoke: --check, --check-json and :lint output as pinned"

FIFO="$OUT_DIR/repl_stdin.fifo"
rm -f "$FIFO"; mkfifo "$FIFO"

"$CLI" --xmark "$XMARK_MB" --admin-port 0 --query-log "$QUERY_LOG" \
  <"$FIFO" >"$OUT_DIR/cli_stdout.log" 2>"$STDERR_LOG" &
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
for route in /buildz /statsz /statsz?recent=2 /tracez; do
  BODY=$(curl -fsS "$BASE$route") || fail "GET $route failed"
  [ -n "$BODY" ] || fail "GET $route returned an empty body"
done
# Unknown and retired routes are 404, and the index lists neither.
for route in /definitely-not-a-route /flightrecz /timeseriesz /varz \
    /cachez; do
  CODE=$(curl -sS -o /dev/null -w '%{http_code}' "$BASE$route")
  [ "$CODE" = "404" ] || fail "GET $route returned $CODE, expected 404"
done
INDEX=$(curl -fsS "$BASE/") || fail "GET / failed"
echo "$INDEX" | grep -q '/metrics' || fail "GET / lists no /metrics"
if echo "$INDEX" | grep -qE 'flightrecz|timeseriesz|varz|cachez'; then
  fail "GET / still lists a retired route"
fi
# /statsz?recent=N takes a non-negative integer, capped at 1024; anything
# else is a 400, not a silent 0 or an overflow.
for arg in abc 99999999999999999999 -1; do
  CODE=$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/statsz?recent=$arg")
  [ "$CODE" = "400" ] || fail "GET /statsz?recent=$arg returned $CODE, expected 400"
done
CODE=$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/statsz?recent=5000")
[ "$CODE" = "200" ] || fail "GET /statsz?recent=5000 returned $CODE, expected 200"

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

# Rates come from scraping /metrics: the query counter a scraper
# differentiates must count the whole burst.
COUNT=$(curl -fsS "$BASE/metrics" \
  | sed -n 's/^flexpath_query_count_total \([0-9]*\)$/\1/p')
[ -n "$COUNT" ] || fail "/metrics has no flexpath_query_count_total"
[ "$COUNT" -ge "${#QUERIES[@]}" ] \
  || fail "flexpath_query_count_total=$COUNT, expected >= ${#QUERIES[@]}"
echo "admin_smoke: /metrics flexpath_query_count_total=$COUNT"

# /statsz?recent honors the cap and carries the burst.
curl -fsS "$BASE/statsz?recent=2" | python3 -c '
import json, sys
stats = json.load(sys.stdin)
assert len(stats["recent"]) <= 2, "recent=%d" % len(stats["recent"])
assert stats["shapes"], "no shape aggregates after traffic"
' || fail "/statsz?recent=2 malformed"

# /metrics accounts every query of the burst: no errors, and the cpu_ms
# histogram and the plan_passes counter saw each one.
curl -fsS "$BASE/metrics" | python3 -c '
import sys
m = {}
for line in sys.stdin:
    if line and not line.startswith("#"):
        name, _, value = line.rpartition(" ")
        m[name] = float(value)
errors = m["flexpath_query_errors_total"]
cpu_count = m["flexpath_query_cpu_ms_count"]
passes = m["flexpath_exec_plan_passes_total"]
assert errors == 0, "errors=%r" % errors
assert cpu_count >= 4, "query_cpu_ms_count=%r" % cpu_count
assert passes >= 4, "exec_plan_passes_total=%r" % passes
print("admin_smoke: /metrics errors=%d cpu_ms_count=%d plan_passes=%d"
      % (errors, cpu_count, passes))
' || fail "/metrics does not account the burst"

# Graceful shutdown: SIGTERM must land as exit 128+15.
kill -TERM "$CLI_PID"
WAIT_RC=0
wait "$CLI_PID" || WAIT_RC=$?
[ "$WAIT_RC" -eq 143 ] || fail "expected exit 143 on SIGTERM, got $WAIT_RC"
echo "admin_smoke: graceful SIGTERM exit ok"

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

#!/bin/sh
# Live-server telemetry round trip (ISSUE 9 acceptance path): start the
# socket daemon with every telemetry flag, drive it through the client
# mode with a compile + dump + stats workload, shut it down with
# SIGTERM, and require the side-channel files (Prometheus exposition,
# flight-recorder dump, Chrome trace) to exist with the expected
# content. Responses themselves must stay telemetry-free.
#
# Usage: simdized_e2e_test.sh /path/to/simdized
set -u

SIMDIZED=$1
SOCK=./e2e.sock
PROM=./e2e.prom
FLIGHT=./e2e.flight.json
TRACE=./e2e.trace.json

rm -f "$SOCK" "$PROM" "$FLIGHT" "$TRACE"

fail() {
  echo "FAIL: $1" >&2
  [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null
  exit 1
}

"$SIMDIZED" --socket="$SOCK" --jobs=2 --prom="$PROM" \
  --flight-dump="$FLIGHT" --trace="$TRACE" --slow-ms=0 &
PID=$!

# Wait for the daemon to accept connections (stats round trip succeeds).
READY=1
I=0
while [ $I -lt 100 ]; do
  if printf '{"id":1,"kind":"stats"}\n' |
    "$SIMDIZED" --connect="$SOCK" >/dev/null 2>&1; then
    READY=0
    break
  fi
  kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup"
  sleep 0.1
  I=$((I + 1))
done
[ $READY -eq 0 ] || fail "daemon never became ready"

# A compile (populates the cache and the flight ring), repeated so the
# second hit attributes to a warm layer, then a dump and a stats read.
REQ='{"id":2,"kind":"compile","loop":"array a i32 128 align 0\narray b i32 128 align 0\nloop 100\na[i+1] = b[i+3]\n","config":{"policy":"lazy","sp":true}}'
printf '%s\n' "$REQ" | "$SIMDIZED" --connect="$SOCK" > e2e_compile.out ||
  fail "compile request failed"
grep -q '"ok":true' e2e_compile.out || fail "compile response not ok"
printf '%s\n' "$REQ" | "$SIMDIZED" --connect="$SOCK" > e2e_compile2.out ||
  fail "repeat compile request failed"
cmp -s e2e_compile.out e2e_compile2.out ||
  fail "warm response differs from cold response"

printf '{"id":3,"kind":"dump"}\n' | "$SIMDIZED" --connect="$SOCK" \
  > e2e_dump.out || fail "dump request failed"
grep -q '"flight"' e2e_dump.out || fail "dump response lacks flight block"
grep -q '"cache_layer"' e2e_dump.out || fail "dump records lack cache_layer"

printf '{"id":4,"kind":"stats"}\n' | "$SIMDIZED" --connect="$SOCK" \
  > e2e_stats.out || fail "stats request failed"
grep -q '"build"' e2e_stats.out || fail "stats lacks build block"
grep -q '"uptime_seconds"' e2e_stats.out || fail "stats lacks uptime"
grep -q '"flight"' e2e_stats.out || fail "stats lacks flight block"

# Two loops that differ only in one array's runtime alignment, checked
# under different configs: each must verify against a reference image of
# its own, and the daemon must stay up to answer the second.
CHK_A='{"id":5,"kind":"check","loop":"array a i32 512 align ? 0\narray b i32 512 align ? 0\nloop 100\na[i] = b[i+1]\n","seed":1,"config":{"policy":"zero"}}'
CHK_B='{"id":6,"kind":"check","loop":"array a i32 512 align ? 0\narray b i32 512 align ? 4\nloop 100\na[i] = b[i+1]\n","seed":1,"config":{"policy":"zero","sp":true}}'
printf '%s\n%s\n' "$CHK_A" "$CHK_B" | "$SIMDIZED" --connect="$SOCK" \
  > e2e_check.out || fail "runtime-alignment check requests failed"
[ "$(grep -o '"verdict":{"ok":true' e2e_check.out | wc -l)" -eq 2 ] ||
  fail "runtime-alignment checks did not both verify"
kill -0 "$PID" 2>/dev/null || fail "daemon died on colliding checks"

kill -TERM "$PID"
wait "$PID" || fail "daemon exited non-zero"
PID=

grep -q 'simdize_server_requests_total' "$PROM" ||
  fail "prom file lacks request counter"
grep -q '# TYPE' "$PROM" || fail "prom file lacks TYPE lines"
grep -q 'simdize_cache_events_total' "$PROM" ||
  fail "prom file lacks cache attribution"
grep -q '"records"' "$FLIGHT" || fail "flight dump lacks records"
grep -q '"memo"\|"alias"\|"live"\|"miss"' "$FLIGHT" ||
  fail "flight dump lacks cache-layer attribution"
grep -q 'traceEvents' "$TRACE" || fail "trace file lacks traceEvents"
exit 0

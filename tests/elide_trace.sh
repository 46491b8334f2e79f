#!/bin/sh
# Usage: elide_trace.sh ELIDE on|off
#
# Runs `elide tree --trace F` on HLE over MCS, where the avalanche makes
# aborts certain. With telemetry compiled in (on), F must hold the
# telemetry CSV header and at least one tx-abort row, and elide must print
# the event count. Compiled out (off), elide must exit 1 with the
# "telemetry was compiled out" diagnostic instead of writing an empty file.
set -u
csv=$(mktemp)
trap 'rm -f "$csv"' EXIT
out=$("$1" tree --lock mcs --scheme hle --ms 0.3 --trace "$csv" 2>&1)
rc=$?
fail() { echo "FAIL: $1 (exit $rc): $out"; exit 1; }
if [ "$2" = off ]; then
  [ "$rc" -eq 1 ] || fail "expected exit 1"
  printf '%s\n' "$out" | grep -q "telemetry was compiled out" ||
    fail "no compiled-out diagnostic"
  echo "ok: elide --trace refused without telemetry"; exit 0
fi
[ "$rc" -eq 0 ] || fail "elide --trace failed"
[ "$(head -n 1 "$csv")" = "timestamp,thread,kind,cause,line,other_thread" ] ||
  fail "no telemetry CSV header"
grep -q '^[0-9]*,[0-9]*,tx-abort,' "$csv" || fail "no tx-abort row"
printf '%s\n' "$out" | grep -Eq '^events: [0-9]+ recorded \([0-9]+ dropped\)' ||
  fail "no event count"
echo "ok: elide --trace wrote the telemetry CSV with tx-abort rows"

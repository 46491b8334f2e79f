#!/bin/sh
# Usage: reject_point_gate.sh BENCH_SUITE BASELINE
#
# Requires `bench_suite --point ID --baseline BASELINE --gate` to refuse the
# combination before running anything: exit status 2 and the usage text. A
# one-point run gated against the whole baseline would report every other
# baseline point as coverage loss.
set -u
suite=$1 baseline=$2
out=$("$suite" --tier smoke --point micro-engine-rtm-t8 \
      --baseline "$baseline" --gate --out /dev/null --quiet 2>&1)
rc=$?
if [ "$rc" -ne 2 ] || ! printf '%s\n' "$out" | grep -q "usage:"; then
  echo "FAIL: bench_suite exited $rc on --point with --gate: $out"; exit 1
fi
echo "ok: --point with --gate rejected (exit 2)"

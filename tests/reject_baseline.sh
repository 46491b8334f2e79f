#!/bin/sh
# Usage: reject_baseline.sh ELIDE BASELINE FROM TO
#
# Copies BASELINE with its first occurrence of the literal text FROM
# replaced by TO, then requires `elide suite --baseline COPY --gate` to
# refuse it: exit status 2 and the "cannot parse baseline" diagnostic.
set -u
elide=$1 baseline=$2 from=$3 to=$4
bad=$(mktemp)
trap 'rm -f "$bad"' EXIT
awk -v from="$from" -v to="$to" '
  !done && (i = index($0, from)) {
    $0 = substr($0, 1, i - 1) to substr($0, i + length(from)); done = 1
  }
  { print }' "$baseline" > "$bad"
if ! grep -qF -- "$from" "$baseline"; then
  echo "FAIL: '$from' not found in $baseline"; exit 1
fi
out=$("$elide" suite --tier smoke --baseline "$bad" --gate --out /dev/null \
      --quiet 2>&1)
rc=$?
if [ "$rc" -ne 2 ] || ! printf '%s\n' "$out" | grep -q "cannot parse baseline"
then
  echo "FAIL: elide suite exited $rc on a baseline with $to: $out"; exit 1
fi
echo "ok: baseline with $to rejected (exit 2)"

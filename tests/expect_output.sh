#!/bin/sh
# Usage: expect_output.sh PATTERN... -- COMMAND [ARG...]
#
# Runs COMMAND and requires exit status 0 and, for every extended regular
# expression PATTERN, a line of its output (stdout or stderr) matching it.
set -u
patterns=
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  patterns="$patterns$1
"
  shift
done
shift
out=$("$@" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || { echo "FAIL: $* exited $rc: $out"; exit 1; }
printf '%s' "$patterns" | while IFS= read -r pattern; do
  printf '%s\n' "$out" | grep -Eq -- "$pattern" ||
    { echo "FAIL: no line matches '$pattern' in: $out"; exit 1; }
done || exit 1
echo "ok: $* printed every expected line"

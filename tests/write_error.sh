#!/bin/sh
# Usage: write_error.sh RC COMMAND [ARG...]
#
# Runs COMMAND, whose arguments name /dev/full as an output file, and
# requires it to notice that the write failed: exit status RC and a
# "cannot write /dev/full" diagnostic. Opening /dev/full succeeds; only the
# flush fails (ENOSPC), so a tool that ignores fclose's result exits 0.
set -u
want=$1
shift
out=$("$@" 2>&1)
rc=$?
if [ "$rc" -ne "$want" ] || ! printf '%s\n' "$out" | grep -q "cannot write /dev/full"
then
  echo "FAIL: $* exited $rc (want $want): $out"; exit 1
fi
echo "ok: write error reported (exit $rc)"

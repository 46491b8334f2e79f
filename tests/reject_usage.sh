#!/bin/sh
# Usage: reject_usage.sh ELIDE "ARG..."
#
# Runs ELIDE with ARG... split as a shell command line would split them (so
# '' passes an empty argument), and requires it to refuse them as a usage
# error: exit status exactly 2, as elide does on a malformed flag value,
# policy spec, figure id or point id, or a flag its command does not read.
set -u
elide=$1
eval "set -- $2"
out=$("$elide" "$@" 2>&1)
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL: elide $* exited $rc (want 2): $out"; exit 1
fi
echo "ok: elide $* rejected (exit 2)"

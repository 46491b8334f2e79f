#!/bin/sh
# Usage: reject_usage.sh TOOLS_DIR "TOOL [ARG...]"
#
# Runs TOOL, a program in TOOLS_DIR, with ARG... split as a shell command
# line would split them (so '' passes an empty argument), and requires it
# to refuse them as a usage error: exit status exactly 2, as every CLI does
# on a malformed flag value, policy spec, figure id or point id.
set -u
dir=$1
eval "set -- $2"
tool=$1
shift
out=$("$dir/$tool" "$@" 2>&1)
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL: $tool $* exited $rc (want 2): $out"; exit 1
fi
echo "ok: $tool $* rejected (exit 2)"

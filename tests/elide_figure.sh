#!/bin/sh
# Usage: elide_figure.sh ELIDE ID
#
# Runs `elide figure ID`: it must exit 0 and print at least one table row
# (a non-blank line right under a table's dashed rule).
set -u
out=$("$1" figure "$2" 2>&1)
rc=$?
[ "$rc" -eq 0 ] || { echo "FAIL: elide figure $2 exited $rc: $out"; exit 1; }
rows=$(printf '%s\n' "$out" |
       awk '/^-+  / { rule = 1; next } rule && NF { n++ } { rule = 0 }
            END { print n + 0 }')
[ "$rows" -ge 1 ] || { echo "FAIL: elide figure $2 printed no table row: $out"; exit 1; }
echo "ok: elide figure $2 printed $rows table(s)"

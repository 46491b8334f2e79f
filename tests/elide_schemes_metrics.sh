#!/bin/sh
# Usage: elide_schemes_metrics.sh ELIDE
#
# Runs `elide schemes --metrics F.json`: F must hold one series per printed
# (scheme, lock) row, each with its abort-cause matrix and attempt
# histogram.
set -u
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
out=$("$1" schemes --size 64 --threads 8 --ms 0.5 --metrics "$dir/m.json")
rc=$?
[ "$rc" -eq 0 ] || { echo "FAIL: elide schemes exited $rc: $out"; exit 1; }
python3 - "$dir/m.json" "$out" <<'PY' || exit 1
import json, sys
# The table rows elide schemes printed: "<scheme>  <TTAS Mops/s>  <MCS Mops/s>".
rows = [w[0] for w in map(str.split, sys.argv[2].splitlines())
        if len(w) == 3 and w[1].replace(".", "").isdigit()]
want = {(s, lock) for s in rows for lock in ("TTAS", "MCS")}
series = json.load(open(sys.argv[1]))["series"]
got = {(s["scheme"], s["lock"]) for s in series}
assert len(series) == len(want) and got == want, (sorted(got), sorted(want))
for s in series:
    assert "aborts_by_cause" in s and "attempts_hist" in s, s["scheme"]
print(f"ok: elide schemes exported {len(series)} (scheme, lock) series"
      " with abort-cause matrices and histograms")
PY

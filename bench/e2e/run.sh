#!/usr/bin/env bash
# Builds the end-to-end benchmark (Release, into build-e2e/ at the repository
# root) and runs it. Arguments go to elision_e2e; with none, all five
# workloads run 40 reps each and every metric is printed with its unit.
#
#   bench/e2e/run.sh                                   # timed run
#   bench/e2e/run.sh --trace 1                         # traced run
#   bench/e2e/run.sh --selfcheck
#   bench/e2e/run.sh --workload rb-scm --seed 7 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-e2e"
cd "$root"

cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target elision_e2e -j 4 >&2

exec "$build/elision_e2e" --out "$build" "$@"

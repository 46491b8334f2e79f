#!/usr/bin/env bash
# Reproduces everything: build, full test suite and every figure/table
# (`elide figure ID`).
# Outputs land in test_output.txt and bench_output.txt at the repo root.
# ELISION_BENCH_SCALE=<x> lengthens bench runs for smoother curves.
set -uo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build --timeout 600 2>&1 | tee test_output.txt

# `elide figure` with no ID lists every registered figure on stderr.
ids=$(build/tools/elide figure 2>&1 | sed -n 's/^figures: //p')
{
  for id in $ids; do
    echo "### $id"
    build/tools/elide figure "$id"
  done
} 2>&1 | tee bench_output.txt

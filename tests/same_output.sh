#!/bin/sh
# Usage: same_output.sh "EXTRA..." COMMAND [ARG...]
#
# Runs COMMAND ARG... and then COMMAND ARG... EXTRA... (EXTRA split at
# spaces); both must exit 0 and print the same stdout, byte for byte.
set -u
extra=$1
shift
first=$("$@") || { echo "FAIL: $* exited $?"; exit 1; }
# shellcheck disable=SC2086  # EXTRA is split on purpose
second=$("$@" $extra) || { echo "FAIL: $* $extra exited $?"; exit 1; }
[ "$first" = "$second" ] ||
  { echo "FAIL: $* printed something else with $extra"; exit 1; }
echo "ok: $* printed the same output with $extra"

#!/usr/bin/env bash
# Strict pre-merge check: configure with warnings-as-errors, build
# everything and run the full test suite, plain and under ASan+UBSan, then
# the checks that need a build configuration or a quiet host of their own.
# Every functional CLI assertion is a ctest target and runs in both ctest
# passes: the `elide tree` smokes, the `elide schemes --metrics` export
# (elide_schemes_exports_metrics), the exit-2 rejections (cli_rejects_*,
# cli_test), the stress sweep over every scheme x lock x workload
# (stress_sweep_all), stress output identity across --host-threads
# (stress_host_threads_identity, stress_shared_host_threads_identity), the
# planted-bug stress self-tests (stress_test's SelfTestFindsPlanted*), the
# fast-path on/off identity (suite_smoke_baseline_fastpath_off), the smoke
# tier's `--jobs 2 --host-threads 2` identity with the committed baseline
# (suite_test), the gate's planted-regression self-check
# (suite_gate_catches_planted_regression) and the differential fuzzes of
# the line table and the ready queue.
# What stays here:
# - a ThreadSanitizer build of the parallel paths (parallel_test and a
#   threaded `elide stress` smoke), with the engine's fiber switches
#   annotated via the TSan fiber API;
# - the smoke tier gated against the committed baseline
#   (bench/baseline.json) with the cross-host --tol-simops 0.9;
# - two host-timing gates: `elide stress --host-threads 4` must buy >= 1.5x
#   wall time on a 4+-core host, and the per-access fast paths must run the
#   64-thread canary rb-s64-u20-t64-ttas-hle-scm-m32x2 >= 1.25x faster than
#   ELISION_FASTPATH=0 (best of 5 interleaved pairs);
# - the full tier gated against the baseline, whose
#   machine-scale-points-elide invariant covers the 128- and 256-thread
#   fig5.1 points;
# - self-checks that a planted 5x simulator slowdown is caught by the
#   suite gate and by the fast-path gate.
# Uses its own build trees (build-check*/) so it never dirties build/, and
# one temp directory, removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

BUILD=build-check

cmake -B "$BUILD" -S . -DELISION_WERROR=ON
cmake --build "$BUILD" -j

ctest --test-dir "$BUILD" --output-on-failure -j

# The same suite under AddressSanitizer + UndefinedBehaviorSanitizer: the
# simulator is single-OS-threaded, so this is cheap and catches exactly the
# class of bug the stress subsystem hunts (overflow, slot-array overruns,
# use-after-free in rolled-back free lists).
SAN_BUILD=build-check-san
cmake -B "$SAN_BUILD" -S . -DELISION_WERROR=ON -DELISION_SANITIZE=ON
cmake --build "$SAN_BUILD" -j
ctest --test-dir "$SAN_BUILD" --output-on-failure -j

# ThreadSanitizer over the in-process parallel paths: the pool itself, the
# per-run simulations fanned out across host threads (parallel_test's
# stress sweep, point seeds and STAMP jobs switch annotated fibers on up to
# 4 host threads; fiber switches go through the TSan fiber API), and a
# threaded stress smoke. Only the parallel-facing targets are built —
# everything else is identical single-threaded code already covered above.
TSAN_BUILD=build-check-tsan
cmake -B "$TSAN_BUILD" -S . -DELISION_WERROR=ON -DELISION_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD" -j --target parallel_test elide
"$TSAN_BUILD"/tests/parallel_test || {
  echo "check: parallel_test failed under ThreadSanitizer" >&2; exit 1; }
"$TSAN_BUILD"/tools/elide stress --schemes hle --locks ttas --seeds 2 \
    --host-threads 4 --quiet || {
  echo "check: threaded stress smoke failed under ThreadSanitizer" >&2
  exit 1; }

# Stress fan-out over host threads must buy wall time on multi-core hosts:
# demand at least 1.5x at --host-threads 4 (the target on an idle 4+-core
# machine is 2x; 1.5x keeps a loaded CI box from flaking). Both sides run in
# 5 interleaved pairs and each keeps its best run, as the fast-path gate
# below does, so a slow first run after other work does not read as a
# missing speedup. Meaningless on fewer than 4 cores, so skipped there.
if [ "$(nproc 2>/dev/null || echo 1)" -ge 4 ]; then
  python3 - "$BUILD" <<'EOF'
import subprocess, sys, time
build = sys.argv[1]
def run(ht):
    t0 = time.monotonic()
    subprocess.run([f"{build}/tools/elide", "stress", "--schemes", "all",
                    "--locks", "all", "--seeds", "2", "--quiet",
                    "--host-threads", str(ht)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.monotonic() - t0
pairs = [(run(1), run(4)) for _ in range(5)]
serial, par = min(s for s, _ in pairs), min(p for _, p in pairs)
speedup = serial / par if par > 0 else 0.0
print("stress: --host-threads 1/4 pairs " +
      " ".join(f"{s:.2f}s/{p:.2f}s" for s, p in pairs))
print(f"stress: --host-threads 4 best-of-5 speedup {speedup:.2f}x"
      f" ({serial:.2f}s -> {par:.2f}s)")
assert speedup >= 1.5, "threaded stress smoke speedup below 1.5x"
EOF
else
  echo "stress: skipping --host-threads speedup check (host has <4 cores)"
fi

# Bench-suite smoke: run the curated smoke tier, emit canonical results,
# check the paper-qualitative invariants, and gate against the committed
# baseline (see docs/benchmarks.md for tolerances and the update workflow).
# The committed baseline's sim_ops_per_sec came from a different machine, so
# the simulator-speed gate here only catches order-of-magnitude slowdowns
# (--tol-simops 0.9); the tight same-machine check comes further down.
bench_json=$tmp/smoke.json
"$BUILD"/tools/elide suite --tier smoke --out "$bench_json" \
    --baseline bench/baseline.json --gate --tol-simops 0.9 --quiet || {
  echo "check: elide suite smoke gate failed (perf regression or paper" \
       "invariant violation)" >&2; exit 1; }

# Per-access fast path (docs/simulator.md "The per-access fast path").
# That it never changes a simulated result is a ctest, run by both ctest
# passes above: suite_smoke_baseline_fastpath_off.
# (a) Speed: the fast paths must run the 64-thread canary
# rb-s64-u20-t64-ttas-hle-scm-m32x2 (64 threads on 32 cores, the e2e
# benchmark's rb-wide64 point) >= 1.25x faster than the same binary with
# ELISION_FASTPATH=0. Both sides run on this host in 5 interleaved pairs and
# each keeps its best run, so the ratio measures the fast paths, not the
# machine. Self-check: one more fast-side run with --plant-slowdown 0.2 (its
# sim_ops_per_sec scaled 5x down) must fail the same bound.
python3 - "$BUILD" <<'EOF'
import json, os, subprocess, sys, tempfile
build = sys.argv[1]
point = "rb-s64-u20-t64-ttas-hle-scm-m32x2"
def sim_ops(fast, *extra):
    env = dict(os.environ, ELISION_FASTPATH="1" if fast else "0")
    with tempfile.NamedTemporaryFile(suffix=".json") as f:
        subprocess.run([f"{build}/tools/elide", "suite", "--tier", "full",
                        "--point", point, "--out", f.name, "--quiet", *extra],
                       check=True, env=env,
                       stderr=subprocess.DEVNULL if extra else None)
        return json.load(open(f.name))["points"][0]["metrics"]["sim_ops_per_sec"]
pairs = [(sim_ops(True), sim_ops(False)) for _ in range(5)]
on, off = max(p for p, _ in pairs), max(q for _, q in pairs)
def passes(fast_side):
    return fast_side / off >= 1.25
print("fastpath: t64 canary pairs (on/off sim ops/s) " +
      " ".join(f"{p:,.0f}/{q:,.0f}" for p, q in pairs))
print(f"fastpath: t64 canary best-of-5 {on:,.0f} vs {off:,.0f} sim ops/s"
      f" with ELISION_FASTPATH=0, {on / off:.2f}x")
assert passes(on), f"fast-path speedup {on / off:.2f}x fell below 1.25x"
planted = sim_ops(True, "--plant-slowdown", "0.2")
assert not passes(planted), (
    f"fast-path gate missed a planted 5x slowdown ({planted / off:.2f}x)")
print(f"fastpath: planted-slowdown self-check caught {planted / off:.2f}x")
EOF

# (b) Machine scale: the full tier must gate green against the committed
# baseline; its machine-scale-points-elide invariant requires the 128- and
# 256-thread fig5.1 points the fast path paid for (the t256 shape is the
# scheduler's kMaxSimThreads ceiling) to commit and run mostly
# speculatively, and coverage loss fails the gate if either goes missing.
"$BUILD"/tools/elide suite --tier full --out "$tmp/full.json" \
    --baseline bench/baseline.json --gate --tol-simops 0.9 --quiet || {
  echo "check: elide suite full-tier gate failed" >&2; exit 1; }
echo "fastpath: full tier gated green"

# Gate self-check: a planted 5x simulator slowdown must be detected (proof
# the host-speed gate is not vacuous; the planted throughput regression is
# the ctest suite_gate_catches_planted_regression). It gates against the
# fresh same-machine results from above, where a tight sim_ops_per_sec
# tolerance is meaningful.
if "$BUILD"/tools/elide suite --tier smoke --plant-slowdown 0.2 \
    --out /dev/null --baseline "$bench_json" --gate --tol-simops 0.5 \
    --quiet >/dev/null 2>&1; then
  echo "check: bench gate missed a planted 5x simulator slowdown" >&2
  exit 1
fi
echo "bench suite: planted-slowdown self-check caught the slowdown"

echo "check: OK"

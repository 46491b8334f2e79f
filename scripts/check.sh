#!/usr/bin/env bash
# Strict pre-merge check: configure with warnings-as-errors, build
# everything, run the full test suite (plain and under ASan+UBSan), and
# smoke-test the metrics export and stress paths end to end (`elide
# schemes` must export one series per (scheme, lock); stress_cli must hold
# all invariants over a perturbed sweep and find both planted bugs — the
# RacyLock race and the GreedySharedLock writer starvation).
# The functional CLI assertions are ctest targets and run in both ctest
# passes: `elide tree`'s avalanche and adaptive-migration smokes
# (elide_tree_mcs_hle_avalanche, elide_tree_adaptive_migrates) and the
# exit-2 rejection of malformed policy specs, flag values and ids
# (cli_rejects_*). The adaptive phase-point outcome and the kv latency
# schema are suite invariants checked by the gated smoke run.
# Finally runs the bench-suite smoke tier gated against the committed
# baseline (bench/baseline.json), re-runs it with --jobs 2 --host-threads 2
# (in-process pool) to prove parallel execution reproduces the sequential
# results bit-for-bit (modulo host wall-time fields), and self-checks that a
# planted 50% throughput regression and a planted 5x simulator slowdown are
# actually caught. A ThreadSanitizer build of the parallel paths
# (parallel_test plus a threaded stress smoke) guards the in-process fan-out
# itself, with the engine's fiber switches annotated via the TSan fiber API.
# The ASan+UBSan ctest pass includes line_table_test's randomized
# differential fuzz of the open-addressing LineTable against a
# std::unordered_map reference, plus the wide-thread-mask paths
# (thread_set_test, line_table_test's 256-thread mutation fuzz), the
# ready-queue differential fuzz (ready_queue_test) behind the O(1)
# scheduling decision (a ring sorted by (clock, tid) at every machine
# size), and fastpath_test's on/off differential over the
# per-access fast paths (owned-line cache, switch-bound batching and
# spin-wait parking). The ctest run also proves the fast paths never change
# a simulated result: suite_test's SmokeTierReproducesCommittedBaseline
# runs the smoke tier against bench/baseline.json, and ctest runs it again
# with ELISION_FASTPATH=0 (suite_smoke_baseline_fastpath_off).
# The bench-suite smoke gate carries both simulator-speed canaries:
# micro-engine-rtm-t8 (the paper's 8-hyperthread machine) and
# micro-engine-rtm-t64 (64 threads on 32 cores), so a host-side regression
# on either end of the machine-size range fails the gate.
# The per-access fast path gets its own section: a same-host A/B asserting
# that the t64 canary runs >= 1.25x faster with the fast paths than with
# ELISION_FASTPATH=0 (5 interleaved pairs, best-of-5 per side), and a
# gated full-tier run whose machine-scale-points-elide invariant covers the
# 128- and 256-thread fig5.1 points.
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
# per-run simulations fanned out across host threads (fiber switches are
# annotated through the TSan fiber API), and a threaded stress smoke. Only
# the two parallel-facing targets are built — everything else is identical
# single-threaded code already covered above.
TSAN_BUILD=build-check-tsan
cmake -B "$TSAN_BUILD" -S . -DELISION_WERROR=ON -DELISION_TSAN=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD" -j --target parallel_test stress_cli fastpath_test
"$TSAN_BUILD"/tests/parallel_test || {
  echo "check: parallel_test failed under ThreadSanitizer" >&2; exit 1; }
"$TSAN_BUILD"/tests/fastpath_test || {
  echo "check: fastpath_test failed under ThreadSanitizer" >&2; exit 1; }
"$TSAN_BUILD"/tools/stress_cli --schemes HLE --locks TTAS --seeds 2 \
    --host-threads 4 --quiet || {
  echo "check: threaded stress smoke failed under ThreadSanitizer" >&2
  exit 1; }

# Metrics export: the all-scheme sweep must export one parseable series
# per printed (scheme, lock).
metrics=$tmp/metrics.json
out=$("$BUILD"/tools/elide schemes --size 64 --threads 8 --ms 0.5 \
      --metrics "$metrics")
python3 - "$metrics" "$out" <<'EOF'
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
print(f"metrics export: {len(series)} (scheme, lock) series,"
      " abort-cause matrix + histograms present")
EOF

# Stress smoke: a small perturbed sweep over every scheme x lock must hold
# every invariant, and the self-test must *find* the planted RacyLock bug
# (proof the checkers are not vacuous). Fixed seeds: fully reproducible.
# The sweep fans out across 4 host threads (the simulated results are
# byte-identical to --host-threads 1; see the identity check below).
"$BUILD"/tools/stress_cli --schemes all --locks all --seeds 3 \
    --host-threads 4 --quiet || {
  echo "check: stress sweep found an invariant violation" >&2; exit 1; }
"$BUILD"/tools/stress_cli --selftest --seeds 5 || {
  echo "check: stress self-test missed the planted RacyLock bug" >&2
  exit 1; }
"$BUILD"/tools/stress_cli --selftest-shared --seeds 5 || {
  echo "check: shared-mode self-test failed (planted GreedySharedLock" \
       "writer starvation missed, or the correct lock was flagged)" >&2
  exit 1; }

# Host-thread fan-out must not change a single byte of stress output:
# compare the full stdout of a threaded sweep against a sequential one.
stress_seq=$("$BUILD"/tools/stress_cli \
    --schemes HLE,HLE-SCM,opt-SLR,adaptive:window=8 \
    --locks all --seeds 2 --quiet)
stress_par=$("$BUILD"/tools/stress_cli \
    --schemes HLE,HLE-SCM,opt-SLR,adaptive:window=8 \
    --locks all --seeds 2 --quiet --host-threads 2)
[ "$stress_seq" = "$stress_par" ] || {
  echo "check: stress --host-threads 2 diverged from --host-threads 1" >&2
  exit 1; }
echo "stress: --host-threads 2 reproduces the sequential sweep exactly"

# Same identity specifically for shared-mode execution: the btree workload
# over the two-mode locks (elided readers, reader-writer checkers) must
# produce byte-identical output at any host-thread count.
shared_seq=$("$BUILD"/tools/stress_cli --schemes hle,hle-scm+shared \
    --locks Shared-TTAS,Shared-MCS --workloads btree --seeds 3 --quiet)
shared_par=$("$BUILD"/tools/stress_cli --schemes hle,hle-scm+shared \
    --locks Shared-TTAS,Shared-MCS --workloads btree --seeds 3 --quiet \
    --host-threads 4)
[ "$shared_seq" = "$shared_par" ] || {
  echo "check: shared-mode stress diverged across --host-threads counts" >&2
  exit 1; }
echo "stress: shared-mode btree sweep is byte-identical across host threads"

# On multi-core hosts the fan-out must actually buy wall time: demand at
# least 1.5x at --host-threads 4 (the target on an idle 4+-core machine is
# 2x; 1.5x keeps a loaded CI box from flaking). Meaningless on fewer than
# 4 cores, so skipped there.
if [ "$(nproc 2>/dev/null || echo 1)" -ge 4 ]; then
  python3 - "$BUILD" <<'EOF'
import subprocess, sys, time
build = sys.argv[1]
def run(ht):
    t0 = time.monotonic()
    subprocess.run([f"{build}/tools/stress_cli", "--schemes", "all",
                    "--locks", "all", "--seeds", "2", "--quiet",
                    "--host-threads", str(ht)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.monotonic() - t0
serial, par = run(1), run(4)
speedup = serial / par if par > 0 else 0.0
print(f"stress: --host-threads 4 speedup {speedup:.2f}x"
      f" ({serial:.1f}s -> {par:.1f}s)")
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
"$BUILD"/tools/bench_suite --tier smoke --out "$bench_json" \
    --baseline bench/baseline.json --gate --tol-simops 0.9 --quiet || {
  echo "check: bench_suite smoke gate failed (perf regression or paper" \
       "invariant violation)" >&2; exit 1; }

# Per-access fast path (docs/simulator.md "The per-access fast path").
# That it never changes a simulated result is a ctest, run by both ctest
# passes above: suite_smoke_baseline_fastpath_off.
# (a) Speed: the fast paths must run the micro-engine-rtm-t64 canary
# >= 1.25x faster than the same binary with ELISION_FASTPATH=0. Both sides
# run on this host in 5 interleaved pairs and each keeps its best run, so
# the ratio measures the fast paths, not the machine.
python3 - "$BUILD" <<'EOF'
import json, os, subprocess, sys, tempfile
build = sys.argv[1]
def sim_ops(fast):
    env = dict(os.environ, ELISION_FASTPATH="1" if fast else "0")
    with tempfile.NamedTemporaryFile(suffix=".json") as f:
        subprocess.run([f"{build}/tools/bench_suite", "--tier", "smoke",
                        "--point", "micro-engine-rtm-t64", "--out", f.name,
                        "--quiet"], check=True, env=env)
        return json.load(open(f.name))["points"][0]["metrics"]["sim_ops_per_sec"]
on = off = 0.0
for _ in range(5):
    on = max(on, sim_ops(True))
    off = max(off, sim_ops(False))
ratio = on / off
print(f"fastpath: t64 canary best-of-5 {on:,.0f} vs {off:,.0f} sim ops/s"
      f" with ELISION_FASTPATH=0, {ratio:.2f}x")
assert ratio >= 1.25, f"fast-path speedup {ratio:.2f}x fell below 1.25x"
EOF

# (b) Machine scale: the full tier must gate green against the committed
# baseline; its machine-scale-points-elide invariant requires the 128- and
# 256-thread fig5.1 points the fast path paid for (the t256 shape is the
# scheduler's kMaxSimThreads ceiling) to commit and run mostly
# speculatively, and coverage loss fails the gate if either goes missing.
"$BUILD"/tools/bench_suite --tier full --out "$tmp/full.json" \
    --baseline bench/baseline.json --gate --tol-simops 0.9 --quiet || {
  echo "check: bench_suite full-tier gate failed" >&2; exit 1; }
echo "fastpath: full tier gated green"

# Parallel execution must reproduce the sequential run exactly: every
# simulated metric is deterministic per seed, so fanning the points out onto
# the in-process pool (--jobs), with per-point multi-seed fan-out
# (--host-threads), may only change the host wall-time fields (wall_ms,
# sim_ops_per_sec, run.host).
bench_par_json=$tmp/smoke_jobs2.json
"$BUILD"/tools/bench_suite --tier smoke --jobs 2 --host-threads 2 \
    --out "$bench_par_json" --quiet || {
  echo "check: bench_suite --jobs 2 run failed" >&2; exit 1; }
python3 - "$bench_json" "$bench_par_json" <<'EOF'
import json, sys
seq, par = (json.load(open(p)) for p in sys.argv[1:3])
assert par["run"]["host"]["jobs"] == 2, par["run"]["host"]
assert par["run"]["host"]["host_threads"] == 2, par["run"]["host"]
for doc in (seq, par):
    del doc["run"]["host"]
    for p in doc["points"]:
        del p["metrics"]["sim_ops_per_sec"], p["metrics"]["wall_ms"]
        # The fastpath hit counts are heap-layout-sensitive (line ids are
        # real addresses), so like wall_ms they may differ between runs.
        p["metrics"].pop("fastpath", None)
assert seq == par, "parallel run diverged from sequential run"
print("bench suite: --jobs 2 --host-threads 2 reproduces the sequential"
      " results exactly")
EOF

# Gate self-checks: a planted 50% throughput regression and a planted 5x
# simulator slowdown must both be detected (proof neither gate is vacuous).
# The slowdown check gates against the fresh same-machine results from
# above, where a tight sim_ops_per_sec tolerance is meaningful.
if "$BUILD"/tools/bench_suite --tier smoke --plant-regression 0.5 \
    --out /dev/null --baseline bench/baseline.json --gate --quiet \
    >/dev/null 2>&1; then
  echo "check: bench gate missed a planted 50% throughput regression" >&2
  exit 1
fi
echo "bench suite: planted-regression self-check caught the regression"

if "$BUILD"/tools/bench_suite --tier smoke --plant-slowdown 0.2 \
    --out /dev/null --baseline "$bench_json" --gate --tol-simops 0.5 \
    --quiet >/dev/null 2>&1; then
  echo "check: bench gate missed a planted 5x simulator slowdown" >&2
  exit 1
fi
echo "bench suite: planted-slowdown self-check caught the slowdown"

echo "check: OK"

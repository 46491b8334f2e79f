// Benchmark runner: spawns N simulated threads that execute operations in a
// loop for a fixed amount of *virtual* time, and aggregates the paper's
// metrics into a RunStats (harness/metrics.hpp): S (speculative
// completions), N (non-speculative completions), total execution attempts
// (A + N + S), throughput, and optional per-slot timelines (Fig 3.3). With
// cfg.telemetry set it also attaches an event trace to the engine and
// post-processes it into avalanche episodes and SCM rejoin latencies.
// run_seeds is the one multi-seed fan-out; every workload point reaches it
// through run_point (harness/suite.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "harness/metrics.hpp"
#include "locks/policy.hpp"
#include "locks/region.hpp"
#include "sim/machine_config.hpp"
#include "sim/scheduler.hpp"
#include "support/function_ref.hpp"
#include "tsx/config.hpp"
#include "tsx/engine.hpp"
#include "tsx/stats.hpp"
#include "tsx/telemetry.hpp"

namespace elision::harness {

class Invariants;

struct BenchConfig {
  int threads = 8;
  double duration_sec = 0.002;  // virtual seconds per measurement
  sim::MachineConfig machine;
  tsx::TsxConfig tsx;
  // If > 0, collect per-slot throughput/non-speculative timelines.
  std::uint64_t timeline_slot_cycles = 0;

  // Scales duration (e.g. from the ELISION_BENCH_SCALE environment
  // variable) without touching per-bench settings.
  double duration_scale = 1.0;

  // How the workload's critical sections execute. Informational to the
  // runner itself (the op closure owns the CriticalSection), but recorded
  // into MetricsRegistry series and reports.
  locks::ElisionPolicy policy = locks::ElisionPolicy::standard();

  // Attach an event trace to the engine for this run and derive episode /
  // rejoin statistics from it. Costs host memory only: telemetry never
  // advances virtual time, so virtual throughput is unchanged.
  bool telemetry = false;
  std::size_t telemetry_ring_capacity = tsx::Telemetry::kDefaultRingCapacity;
  tsx::AvalancheConfig avalanche;

  // Record into a caller-owned sink instead of a run-local one, so the raw
  // event stream outlives the run (`elide tree`). Implies `telemetry`.
  tsx::Telemetry* telemetry_sink = nullptr;

  // A caller-owned invariant sink (harness/invariants.hpp) that run_keyed
  // and run_bt feed every body, completion and committed effect; the stress
  // subsystem owns one per case. Null for plain benchmarking: the runners
  // then take their unchecked path, and run_workload never reads it.
  Invariants* invariants = nullptr;

  std::uint64_t duration_cycles() const {
    return machine.cycles(duration_sec * duration_scale);
  }
};

// One benchmark operation: runs a critical section (or several) and reports
// how it completed.
using OpFn = std::function<locks::RegionResult(tsx::Ctx&)>;

// Strict machine-shape validation, run before any simulation state is
// built: thread counts must be in [1, sim::kMaxSimThreads] and the machine
// topology non-degenerate (n_cores >= 1, smt_per_core >= 1 — the scheduler
// maps thread t to core t % n_cores, so a zero would fault, and a zero in
// an RbPoint/MicroPoint override means "keep the default", which must be
// applied before the config reaches here). Violations print a clear
// diagnostic and exit(2), matching the CLIs' usage-error convention.
void validate_bench_config(const BenchConfig& cfg);

// A point's machine-shape overrides (RbPoint, MicroPoint): each non-zero
// field replaces the MachineConfig default (the paper's 4-core / 2-SMT i7).
template <typename Point>
void apply_machine_shape(const Point& p, sim::MachineConfig& machine) {
  if (p.n_cores != 0) machine.n_cores = p.n_cores;
  if (p.smt_per_core != 0) machine.smt_per_core = p.smt_per_core;
  if (p.yield_slack_cycles != 0) {
    machine.yield_slack_cycles = p.yield_slack_cycles;
  }
}

// The configuration a run simulates: `cfg` validated (exits 2 like
// validate_bench_config), with both per-access fast paths (the engine's
// owned-line cache and the scheduler's switch-bound batching) off under
// ELISION_FASTPATH=0. Every run builds its scheduler and engine from it.
BenchConfig simulated_config(const BenchConfig& cfg);

// Runs `threads` copies of `op` in a loop until the virtual deadline, on
// simulated_config(cfg).
RunStats run_workload(const BenchConfig& cfg, const OpFn& op);

// The multi-seed fan-out behind run_point (harness/suite.hpp): runs
// body(s, seed_s) for s in [0, max(seeds, 1)), seed_s being base_seed plus
// s steps of the 32-bit golden-ratio constant, on up to `host_threads` host
// threads, and merges the per-seed RunStats in seed order. Each seed is an
// independent simulation writing only its own slot, so the result is
// byte-identical to host_threads=1 no matter which thread ran which seed
// when.
RunStats run_seeds(
    int seeds, std::uint64_t base_seed, int host_threads,
    support::FunctionRef<RunStats(std::size_t s, std::uint64_t seed)> body);

// Reads ELISION_BENCH_SCALE (default 1.0) so users can lengthen runs.
double env_duration_scale();

// Reads ELISION_FASTPATH (default enabled; "0" disables): whether the
// per-access fast paths — the engine's owned-line cache and the scheduler's
// switch-bound batching — are engaged. They never change simulated results,
// only host speed, so the off setting exists for A/B measurement and the
// differential equivalence tests (fastpath_test, and the fast-path-off leg
// of SuiteRun.SmokeTierReproducesCommittedBaseline).
bool env_fastpath_enabled();

}  // namespace elision::harness

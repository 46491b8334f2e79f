// Benchmark runner: spawns N simulated threads that execute operations in a
// loop for a fixed amount of *virtual* time, and aggregates the paper's
// metrics: S (speculative completions), N (non-speculative completions),
// total execution attempts (A + N + S), throughput, and optional per-slot
// timelines (Fig 3.3). With cfg.telemetry set it also attaches an event
// trace to the engine and post-processes it into avalanche episodes and
// SCM rejoin latencies.
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
  // event stream outlives the run (tools/trace_dump). Implies `telemetry`.
  tsx::Telemetry* telemetry_sink = nullptr;

  // Called after every completed region, on the completing simulated thread
  // (its virtual clock is current). The stress subsystem hangs its
  // invariant checkers and starvation watchdog off this; leave unset for
  // plain benchmarking (null = zero cost).
  std::function<void(tsx::Ctx&, const locks::RegionResult&)>
      on_region_complete;

  std::uint64_t duration_cycles() const {
    return machine.cycles(duration_sec * duration_scale);
  }
};

struct SlotStats {
  std::uint64_t ops = 0;
  std::uint64_t nonspec_ops = 0;
};

struct RunStats {
  std::uint64_t ops = 0;          // S + N
  std::uint64_t spec_ops = 0;     // S
  std::uint64_t nonspec_ops = 0;  // N
  std::uint64_t attempts = 0;     // A + N + S
  std::uint64_t elapsed_cycles = 0;
  // Delay injections performed by the scheduler's perturbation layer
  // (0 unless machine.perturb was configured; see src/stress).
  std::uint64_t perturb_points = 0;
  double ghz = 3.4;
  tsx::TxStats tx;  // engine-level transaction counters
  // Scheduler-side fast-path telemetry: how many times the cached
  // context-switch bound was recomputed (once per actual switch under
  // batching; 0 when machine.batch_switch_bound is off). Host-side
  // observability only — the engine-side companions live in tx.
  std::uint64_t fp_bound_recomputes = 0;
  std::vector<SlotStats> timeline;

  // Always collected (host-side, one Histogram::add per completed region).
  Histogram attempts_hist;

  // Populated only when BenchConfig::telemetry was set.
  Histogram rejoin_hist;  // SCM aux-enter -> aux-exit, virtual cycles
  std::vector<tsx::AvalancheEpisode> episodes;
  std::uint64_t telemetry_events = 0;   // recorded into the rings
  std::uint64_t telemetry_dropped = 0;  // lost to ring wrap-around

  // Per-operation-kind virtual-time latency (request arrival -> completion),
  // recorded by workloads that model request latency (src/service). Entries
  // keep the workload's registration order; accumulate() merges by name.
  struct OpLatency {
    std::string op;
    QuantileHistogram hist;
  };
  std::vector<OpLatency> op_latency;
  QuantileHistogram* latency_series(const std::string& op);

  // Folds another run into this one: every counter, histogram and episode
  // list is merged, and timelines are added slot-wise (resizing to the
  // longer of the two). ghz is taken from the first non-empty run and must
  // match across all accumulated runs.
  void accumulate(const RunStats& o);

  double seconds() const { return elapsed_cycles / (ghz * 1e9); }
  double throughput() const {
    return seconds() > 0 ? static_cast<double>(ops) / seconds() : 0.0;
  }
  double attempts_per_op() const {
    return ops > 0 ? static_cast<double>(attempts) / static_cast<double>(ops)
                   : 0.0;
  }
  double nonspec_fraction() const {
    return ops > 0
               ? static_cast<double>(nonspec_ops) / static_cast<double>(ops)
               : 0.0;
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

// Runs `threads` copies of `op` in a loop until the virtual deadline.
// Exits(2) on an invalid config (validate_bench_config).
RunStats run_workload(const BenchConfig& cfg, const OpFn& op);

// The multi-seed fan-out behind every run_*_point: runs body(s, seed_s) for
// s in [0, max(seeds, 1)), seed_s being base_seed plus s steps of the 32-bit
// golden-ratio constant, on up to `host_threads` host threads, and merges
// the per-seed RunStats in seed order. Each seed is an independent simulation writing only its own slot,
// so the result is byte-identical to host_threads=1 no matter which thread
// ran which seed when. A body with per-seed out-params writes them to its
// own slot s; the caller merges those in s order after the call.
RunStats run_seeds(
    int seeds, std::uint64_t base_seed, int host_threads,
    support::FunctionRef<RunStats(std::size_t s, std::uint64_t seed)> body);

// Same, and folds the result into `registry` under (policy name, lock name).
RunStats run_workload(const BenchConfig& cfg, const OpFn& op,
                      MetricsRegistry& registry, const std::string& lock_name);

// Reads ELISION_BENCH_SCALE (default 1.0) so users can lengthen runs.
double env_duration_scale();

// Reads ELISION_FASTPATH (default enabled; "0" disables): whether the
// per-access fast paths — the engine's owned-line cache and the scheduler's
// switch-bound batching — are engaged. They never change simulated results,
// only host speed, so the off setting exists for A/B measurement and the
// differential equivalence checks in scripts/check.sh.
bool env_fastpath_enabled();

// Reads ELISION_HOST_THREADS (default 1): how many *host* threads
// independent simulations may fan out across (support/parallel.hpp).
// 0 means "all hardware threads". Distinct from any simulated thread
// count — host threads never change simulated results, only wall time.
int env_host_threads();

}  // namespace elision::harness

// Schedule-exploration stress harness.
//
// The deterministic virtual-time simulator executes exactly one
// interleaving per seed, so a fixed-seed test suite explores a vanishingly
// small corner of the schedule space — and fallback-path bugs (the place
// HTM algorithms actually break) hide in the rest of it. This subsystem
// systematically perturbs schedules and checks invariants:
//
//  * perturbation — sim::PerturbConfig injects random extra delays at
//    shared-memory access points, driven by a dedicated per-run seed
//    (the workload's own random choices are untouched);
//  * invariants — mutual exclusion (at most one *non-speculative* thread
//    per lock's critical section), lost-update detection, data-structure
//    validation after every run, and a virtual-time starvation watchdog;
//  * sweeping — run_case() executes one (policy, lock, workload,
//    perturbation seed) cell; sweep() crosses policy x lock x workload x
//    seed; minimize_case() shrinks a failing seed's perturbation budget to
//    the smallest injection prefix that still reproduces the violation.
//
// Reproduce any reported failure with `elide stress` (see docs/stress.md).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "locks/policy.hpp"
#include "locks/registry.hpp"

namespace elision::stress {

enum class Workload {
  kCounter,    // one hot Shared counter; checks lost updates + mutex
  kHashTable,  // mixed insert/erase/lookup; checks structure + net size
  kBtree,      // B+tree mix; reads run shared on two-mode locks; checks
               // structure, net size, rw-mutex and role lockout
  kShardedKv,  // sharded KV service; single-shard + cross-shard
               // (multi_put/transfer) mix; checks per-shard structure and
               // the cross-shard value ledger (a torn multi-lock region
               // shows up as a lost update)
};

const char* workload_name(Workload w);
std::vector<Workload> all_workloads();

// Policies covered by "--schemes all": the paper's six evaluated schemes
// plus the RTM-based elision mechanism and the adaptive mode controller
// (with a short decision window so it migrates within a case), all in
// exclusive mode — the shared-mode axis is exercised per-operation by the
// btree workload, not by the policy grid (a `+shared` policy would run
// read-write bodies as readers, which is a usage error, not a lock bug).
std::vector<locks::ElisionPolicy> all_policies();

// Per-sweep knobs (shared by every case of a sweep).
struct StressOptions {
  int threads = 8;
  double duration_ms = 0.05;  // virtual milliseconds per run

  // Perturbation layer (sim::PerturbConfig; the per-case seed and budget
  // live in StressCase).
  double perturb_probability = 0.05;
  std::uint64_t perturb_max_delay_cycles = 2000;

  // Workload randomness (distinct from the perturbation seed: the sweep
  // varies schedules over a fixed workload).
  std::uint64_t workload_seed = 0x1234ABCDULL;

  // Starvation watchdog: flag a thread silent for gap_cycles of virtual
  // time while >= min_other_ops other completions went through.
  std::uint64_t starvation_gap_cycles = 400000;
  std::uint64_t starvation_min_other_ops = 50;

  // Deadlock valve: abort the simulation (loudly) after this many context
  // switches. 0 disables.
  std::uint64_t max_switches = 50000000;

  // Attach an abort-telemetry ring to each run and report episode counts
  // in the outcome (host-memory cost only; see docs/telemetry.md).
  bool telemetry = false;

  // Hash-table workload sizing.
  std::uint64_t hashtable_key_domain = 96;
  std::size_t hashtable_buckets = 32;
  std::size_t hashtable_capacity = 256;

  // B+tree workload: tree size (key domain is 2x), the update share of the
  // mix (split between inserts and erases), the share of reads that are
  // range scans, their length, and an optional in-section dwell for read
  // operations — virtual cycles of compute() inside the (shared) critical
  // section, used by the writer-starvation self-test to keep the reader
  // crowd overlapped.
  std::size_t btree_size = 96;
  int btree_update_pct = 20;
  int btree_scan_pct = 30;
  std::size_t btree_scan_len = 8;
  std::uint64_t btree_read_dwell_cycles = 0;

  // Sharded-KV workload sizing: few shards + a small key domain keep the
  // cross-shard regions (multi_put/transfer) genuinely conflicting.
  int kv_shards = 4;
  std::uint64_t kv_key_domain = 48;
  // 0: every thread rolls the update die per op. > 0: threads with id below
  // this are dedicated writers (update mix only) and the rest are pure
  // readers — the role split the lockout hazards need (a mixed-duty thread
  // that blocks as a writer stops reading, so the reader crowd self-drains
  // and a reader-barging bug can never starve writers for long).
  int btree_writer_threads = 0;
  // Virtual cycles an updater computes *outside* the critical section before
  // each update. Without it a dedicated writer re-announces intent the
  // moment it unlocks, and a writer-preference lock then (correctly, per its
  // documented unfairness) locks the readers out — the gap opens reader
  // windows so only a broken lock trips the lockout checker.
  std::uint64_t btree_writer_gap_cycles = 0;

  // Shrink failing seeds' perturbation budgets during sweep().
  bool minimize = true;

  // Host threads sweep() may fan independent cases out across
  // (support/parallel.hpp). Distinct from `threads`, which is the
  // *simulated* thread count of every case. Any value produces
  // byte-identical SweepStats (and on_run sequences) to host_threads=1:
  // outcomes are merged — and failures minimized — in grid order after all
  // cases ran. Failure minimization itself always runs serially (it
  // mutates the case's perturbation budget between dependent re-runs).
  int host_threads = 1;
};

// One cell of the sweep.
struct StressCase {
  locks::ElisionPolicy policy = locks::ElisionPolicy::hle();
  // Any registry lock; a planted one only under the standard policy. The
  // btree workload runs a two-mode lock's reads shared.
  locks::LockId lock = locks::LockId::kTtas;
  Workload workload = Workload::kCounter;
  std::uint64_t perturb_seed = 0;
  // Perturbation budget (sim::PerturbConfig::max_points); 0 = unlimited.
  std::uint64_t perturb_points = 0;
};

std::string case_name(const StressCase& c);

struct RunOutcome {
  std::vector<std::string> violations;
  std::uint64_t ops = 0;
  std::uint64_t aborts = 0;
  std::uint64_t perturb_points_used = 0;
  std::uint64_t elapsed_cycles = 0;
  std::uint64_t avalanche_episodes = 0;  // only when telemetry is on
  bool ok() const { return violations.empty(); }
};

// Runs one case under the options' perturbation/invariant configuration.
RunOutcome run_case(const StressOptions& o, const StressCase& c);

// Greedy budget-halving repro shrinking: starting from the failing run's
// injection count, keep halving the budget while the violation still
// reproduces. Returns the smallest failing budget found (not guaranteed
// globally minimal — failures need not be monotone in the budget) and the
// outcome under it. If `c` does not fail at all, returns its passing
// outcome with points == c.perturb_points.
struct Minimized {
  std::uint64_t points = 0;
  RunOutcome outcome;
};
Minimized minimize_case(const StressOptions& o, StressCase c);

struct FailureReport {
  StressCase c;
  RunOutcome outcome;
  // Smallest failing perturbation budget (== outcome's budget when
  // minimization is off).
  std::uint64_t minimized_points = 0;
};

struct SweepStats {
  int runs = 0;
  // Summed over outcomes in grid order (and commutative anyway), so the
  // total is independent of which host thread completed which case when.
  std::uint64_t total_ops = 0;
  std::vector<FailureReport> failures;  // grid order
  bool ok() const { return failures.empty(); }
};

// Crosses policies x locks x workloads x perturbation seeds
// [first_seed, first_seed + n_seeds). Cases run on up to
// o.host_threads host threads (each case is an independent simulation);
// aggregation happens in grid order afterwards, so results and reporting
// are byte-identical across host-thread counts. `on_run`, if set, is
// called once per case in grid order during that aggregation phase —
// progress reporting, not a live completion callback.
SweepStats sweep(
    const StressOptions& o, const std::vector<locks::ElisionPolicy>& policies,
    const std::vector<locks::LockId>& locks,
    const std::vector<Workload>& workloads, std::uint64_t first_seed,
    int n_seeds,
    const std::function<void(const StressCase&, const RunOutcome&)>& on_run =
        {});

}  // namespace elision::stress

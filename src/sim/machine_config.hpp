// Configuration of the simulated machine: the paper's Core i7-4770
// (4 cores x 2 hyperthreads, 3.4 GHz, 32KB 8-way L1D, 256KB L2, 8MB L3).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/cost_model.hpp"

namespace elision::sim {

// Hard cap on simulated threads per Scheduler. The TSX layer identifies
// readers with a fixed-width thread mask (tsx::kMaxThreads aliases this and
// tsx::ThreadSet sizes its word array from it), and the scheduler's ready
// queue is a fixed ring of this many slots (a power of two, so its indices
// wrap with a mask), so the cap is load-bearing, not just a sizing hint.
// 256 covers the big-machine scaling studies (64-plus logical CPUs) with
// headroom.
inline constexpr int kMaxSimThreads = 256;

// Schedule-exploration knobs (src/stress). When `probability` is nonzero,
// every simulated memory access becomes a *perturbation point*: with that
// probability the accessing thread's virtual clock jumps forward by a
// random delay in [1, max_delay_cycles], re-sorting it in the earliest-first
// run order and thereby exploring a different interleaving. Perturbation
// draws from its own RNG (seeded from `seed`, per thread), so the workload's
// random choices are untouched and a (workload seed, perturbation seed) pair
// is fully reproducible.
struct PerturbConfig {
  double probability = 0.0;  // 0 = off (the default: production runs pay
                             // one branch per access and nothing else)
  std::uint64_t max_delay_cycles = 2000;
  std::uint64_t seed = 0;
  // Global budget of injected perturbations across all threads (0 =
  // unlimited). Failing-seed minimization shrinks this to find the smallest
  // prefix of injections that still reproduces a violation.
  std::uint64_t max_points = 0;
};

struct MachineConfig {
  // Topology. Logical thread t runs on core (t % n_cores); threads mapped to
  // the same core are hyperthread siblings and run slower while co-active.
  unsigned n_cores = 4;
  unsigned smt_per_core = 2;
  // Per-access cost multiplier while a hyperthread sibling is co-active.
  // Pointer-chasing critical sections benefit substantially from SMT on
  // Haswell (the sibling hides latency), hence the mild penalty.
  double smt_slowdown = 1.25;

  double ghz = 3.4;  // converts cycles to simulated seconds for reporting

  CostModel cost;

  // Scheduling: a running thread yields once its virtual clock exceeds the
  // minimum runnable clock by this slack. 0 = strict earliest-first
  // interleaving at memory-access granularity.
  std::uint64_t yield_slack_cycles = 0;

  std::size_t fiber_stack_bytes = 256 * 1024;

  // Capacity hints for per-thread transactional state. Each TxContext
  // pre-reserves its read/write line vectors and write buffer from these on
  // creation, so the steady state of a retry loop performs no allocations.
  // They are hints, not caps: the vectors still grow past them if a
  // transaction really reads more lines (bounded by TsxConfig::l3_lines).
  std::size_t tx_read_set_hint = 2048;
  // A write set is bounded by the L1 (64 sets x 8 ways) plus the one
  // overflowing line that triggers the capacity abort.
  std::size_t tx_write_set_hint = 64 * 8 + 1;
  // Distinct words buffered per transaction (sizes the WordMap).
  std::size_t tx_write_buffer_hint = 192;

  // Switch-bound batching: instead of re-reading the ready queue once per
  // simulated access, the scheduler caches the next preemption bound
  // (minimum clock of the *other* runnable threads plus the yield slack) at
  // every context switch and lets the running thread's accesses run
  // back-to-back against that one cached value. The bound can only change
  // when another thread runs, so recomputing it per switch instead of per
  // access produces the exact same schedule bit-for-bit (pinned by the
  // golden switch-count tests). Off = the per-access read of the ready
  // queue's head, kept for differential schedule-equivalence tests.
  bool batch_switch_bound = true;

  // Safety valve: abort the simulation after this many context switches
  // (0 = unlimited). Used by tests to detect livelock/deadlock.
  std::uint64_t max_switches = 0;

  std::uint64_t seed = 0x1234ABCDULL;

  // Schedule perturbation (off by default; see PerturbConfig above).
  PerturbConfig perturb;

  std::uint64_t cycles(double seconds) const {
    return static_cast<std::uint64_t>(seconds * ghz * 1e9);
  }
  double seconds(std::uint64_t cycles_) const {
    return static_cast<double>(cycles_) / (ghz * 1e9);
  }
};

}  // namespace elision::sim

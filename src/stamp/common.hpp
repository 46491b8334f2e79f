// Shared infrastructure of the STAMP-mini suite (Sec. 5.3).
//
// The paper evaluates seven STAMP configurations (genome, intruder,
// kmeans-high, kmeans-low, ssca2, vacation-high, vacation-low) after
// replacing every transaction with a critical section on one global lock.
// These re-implementations reproduce each application's *transactional
// character* — transaction length, read/write-set size, contention level —
// on the simulator's shared memory, which is what the lock-elision study
// depends on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "locks/registry.hpp"
#include "locks/schemes.hpp"
#include "sim/machine_config.hpp"
#include "tsx/config.hpp"

namespace elision::stamp {

struct StampConfig {
  int threads = 8;
  locks::Scheme scheme = locks::Scheme::kStandard;
  locks::LockId lock = locks::LockId::kTtas;  // one of locks::StampLocks
  sim::MachineConfig machine;
  tsx::TsxConfig tsx;
  std::uint64_t seed = 12345;
  double scale = 1.0;  // problem-size multiplier
};

struct StampResult {
  std::string app;
  std::uint64_t checksum = 0;       // workload result (deterministic for all
                                    // apps except vacation, whose outcome is
                                    // inherently interleaving-dependent)
  bool invariants_ok = true;        // app-specific consistency checks passed
  std::uint64_t elapsed_cycles = 0; // virtual completion time
  std::uint64_t ops = 0;            // critical sections executed
  std::uint64_t nonspec_ops = 0;
  std::uint64_t attempts = 0;

  double seconds(double ghz) const { return elapsed_cycles / (ghz * 1e9); }
  double attempts_per_op() const {
    return ops > 0 ? static_cast<double>(attempts) / ops : 0.0;
  }
  double nonspec_fraction() const {
    return ops > 0 ? static_cast<double>(nonspec_ops) / ops : 0.0;
  }
};

// Sense-reversing barrier on simulated shared memory; the spin runs outside
// any transaction.
class SimBarrier {
 public:
  explicit SimBarrier(int parties) : parties_(parties) {}

  void wait(tsx::Ctx& ctx) {
    const std::uint64_t my_sense = 1 - sense_.load(ctx);
    if (count_.fetch_add(ctx, 1) + 1 == static_cast<std::uint64_t>(parties_)) {
      count_.store(ctx, 0);
      sense_.store(ctx, my_sense);
    } else {
      ctx.engine().spin_while(ctx, sense_, [my_sense](std::uint64_t v) {
        return v != my_sense;
      });
    }
  }

 private:
  int parties_;
  support::CacheAligned<tsx::Shared<std::uint64_t>> count_storage_;
  support::CacheAligned<tsx::Shared<std::uint64_t>> sense_storage_;
  tsx::Shared<std::uint64_t>& count_ = count_storage_.value;
  tsx::Shared<std::uint64_t>& sense_ = sense_storage_.value;
};

// Per-thread accounting accumulated into a StampResult.
struct OpTally {
  std::uint64_t ops = 0, nonspec = 0, attempts = 0;
  void add(const locks::RegionResult& r) {
    ++ops;
    if (!r.speculative) ++nonspec;
    attempts += static_cast<std::uint64_t>(r.attempts);
  }
};

// --- the seven evaluated configurations ---
StampResult run_genome(const StampConfig& cfg);
// Extension beyond the thesis's evaluation: the long-transaction router.
StampResult run_labyrinth(const StampConfig& cfg);
StampResult run_intruder(const StampConfig& cfg);
StampResult run_kmeans(const StampConfig& cfg, bool high_contention);
StampResult run_ssca2(const StampConfig& cfg);
StampResult run_vacation(const StampConfig& cfg, bool high_contention);

// Runs an app by name: genome, intruder, kmeans_high, kmeans_low, ssca2,
// vacation_high, vacation_low.
StampResult run_app(const std::string& name, const StampConfig& cfg);

// One (app, configuration) cell of a STAMP sweep.
struct StampJob {
  std::string app;
  StampConfig cfg;
};

// Runs every job — each an independent simulation — fanning them out over
// up to `host_threads` host threads (support/parallel.hpp), and returns the
// results in job order, so output is byte-identical to running the jobs
// sequentially (host_threads <= 1 does exactly that, inline).
std::vector<StampResult> run_apps(const std::vector<StampJob>& jobs,
                                  int host_threads);

inline constexpr const char* kAppNames[] = {
    "genome",     "intruder",      "kmeans_high", "kmeans_low",
    "ssca2",      "vacation_high", "vacation_low",
};

// The evaluated seven plus the labyrinth extension.
inline constexpr const char* kAllAppNames[] = {
    "genome",     "intruder",      "kmeans_high", "kmeans_low",
    "ssca2",      "vacation_high", "vacation_low", "labyrinth",
};

}  // namespace elision::stamp

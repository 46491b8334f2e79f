// Host-side invariant checks for one simulated run. A caller owns an
// Invariants sink and points BenchConfig::invariants at it; run_keyed and
// run_bt (and stress's own bodies) then feed it every critical-section
// body, completion and committed effect. A null sink means off.
//
// All checker state is host-side: invisible to the simulated coherence
// fabric (no Shared<T>) and free of virtual time, so checking cannot
// perturb the interleavings it checks. A transactional body may run, roll
// back and run again, so occupancy counts only non-transactional
// executions, and an operation's effect is taken after its region
// completed, from the last execution of its body: the one that took
// effect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "locks/region.hpp"
#include "support/check.hpp"
#include "support/function_ref.hpp"
#include "tsx/engine.hpp"

namespace elision::harness {

// Mutual exclusion for both lock modes: a non-speculative exclusive
// occupancy must exclude everything; non-speculative shared occupancies may
// overlap each other but never an exclusive one. Speculative
// (transactional) occupancies legitimately overlap — the TM layer rolls
// losers back — so they are not counted. The decision is taken on entry:
// an abort can only discard a transactional occupancy, so a counted one
// always reaches its exit. Not an RAII guard: an abort restores the
// transaction's checkpoint without running destructors (Engine::attempt).
class OccupancyChecker {
 public:
  void occupy(tsx::Ctx& ctx, locks::AccessMode mode,
              support::FunctionRef<void()> body) {
    if (ctx.in_tx()) {
      body();
      return;
    }
    if (mode == locks::AccessMode::kExclusive) {
      if (++writers_ > 1) {
        ++overlaps_;
      } else if (readers_ > 0) {
        ++rw_overlaps_;
      }
      body();
      --writers_;
    } else {
      if (writers_ > 0) ++rw_overlaps_;
      ++readers_;
      body();
      --readers_;
    }
  }

  // Exclusive occupancies entered while another exclusive one was inside.
  std::uint64_t overlaps() const { return overlaps_; }
  // Exclusive and shared occupancies that met (either one entering).
  std::uint64_t rw_overlaps() const { return rw_overlaps_; }

 private:
  int writers_ = 0;
  int readers_ = 0;
  std::uint64_t overlaps_ = 0;
  std::uint64_t rw_overlaps_ = 0;
};

// Virtual-time starvation watchdog over a set of members — the simulated
// threads, or the two roles of a reader-writer workload. Feed it every
// completion with its member and the completing thread's virtual clock; it
// flags a member that went `gap_cycles` of simulated time without a
// completion while the others completed at least `min_other_ops` — starved,
// not idle. A writer-preference lock can starve the reader role under a
// continuous writer stream (the SharedTtasLock hazard); a reader protocol
// that ignores writer intent starves the writer role (the planted
// GreedySharedLock bug).
class StarvationWatchdog {
 public:
  StarvationWatchdog(std::vector<std::string> names, std::uint64_t gap_cycles,
                     std::uint64_t min_other_ops)
      : gap_cycles_(gap_cycles),
        min_other_ops_(min_other_ops),
        names_(std::move(names)),
        members_(names_.size()) {}

  void note_completion(std::size_t who, std::uint64_t now) {
    ELISION_CHECK(who < members_.size());
    check_gap(who, now);
    ++total_ops_;
    members_[who] = {now, total_ops_};
  }

  // Call once after the run with the final virtual time: a member that fell
  // silent and never completed again is starved too.
  void finish(std::uint64_t end_time) {
    for (std::size_t who = 0; who < members_.size(); ++who) {
      check_gap(who, end_time);
    }
  }

  const std::vector<std::string>& violations() const { return violations_; }

 private:
  struct Member {
    std::uint64_t last_completion = 0;
    std::uint64_t ops_at_last = 0;
  };

  void check_gap(std::size_t who, std::uint64_t now) {
    const std::uint64_t gap = now - members_[who].last_completion;
    const std::uint64_t other_ops = total_ops_ - members_[who].ops_at_last;
    if (gap > gap_cycles_ && other_ops >= min_other_ops_) {
      violations_.push_back(
          names_[who] + " completed nothing for " + std::to_string(gap) +
          " cycles while " + std::to_string(other_ops) +
          " other completions went through");
    }
  }

  const std::uint64_t gap_cycles_;
  const std::uint64_t min_other_ops_;
  const std::vector<std::string> names_;
  std::vector<Member> members_;
  std::uint64_t total_ops_ = 0;
  std::vector<std::string> violations_;
};

// One keyed-set operation as the last execution of its body saw it.
struct KeyedOp {
  enum Kind : unsigned char { kInsert, kErase, kLookup };
  Kind kind = kLookup;
  bool hit = false;            // inserted, erased or found
  std::uint64_t value = 0;     // what a found lookup read
  std::uint64_t expected = 0;  // what every store of the key writes
};

// The sink: occupancy, the starvation watchdog, role lockout, and a ledger
// of committed effects (net size, torn values) reconciled against the
// structure after the run.
class Invariants {
 public:
  Invariants(int threads, std::uint64_t gap_cycles,
             std::uint64_t min_other_ops)
      : threads_(thread_names(threads), gap_cycles, min_other_ops),
        roles_({"readers", "writers"}, gap_cycles, min_other_ops) {}

  // Runs a critical-section body through the occupancy check of the mode
  // its region takes the lock in.
  void occupy(tsx::Ctx& ctx, locks::AccessMode mode,
              support::FunctionRef<void()> body) {
    occupancy_.occupy(ctx, mode, body);
  }

  // A completed region, on the completing thread (its clock is current).
  void completed(tsx::Ctx& ctx) {
    threads_.note_completion(static_cast<std::size_t>(ctx.id()),
                             ctx.thread().now());
  }
  // A completed keyed operation: updates are the writer role, reads the
  // reader role; its committed effect goes to the ledger.
  void completed(tsx::Ctx& ctx, const KeyedOp& op) {
    completed(ctx);
    roles_.note_completion(op.kind == KeyedOp::kLookup ? 0 : 1,
                           ctx.thread().now());
    if (!op.hit) return;
    if (op.kind == KeyedOp::kInsert) ++net_;
    if (op.kind == KeyedOp::kErase) --net_;
    if (op.kind == KeyedOp::kLookup && op.value != op.expected) ++torn_;
  }

  // After the run: `set` (named `name`, holding `initial` keys before it)
  // must validate and hold exactly what the ledger says, and no lookup may
  // have read a value no store wrote.
  template <typename Set>
  void check_set(const char* name, std::size_t initial, const Set& set) {
    const std::string what = name;
    std::string why;
    if (!set.unsafe_validate(&why)) {
      violations_.push_back(what + " structure: " + why);
    }
    const auto want = static_cast<std::int64_t>(initial) + net_;
    const auto holds = static_cast<std::int64_t>(set.unsafe_size());
    if (holds != want) {
      violations_.push_back(what + " net size: the ledger expects " +
                            std::to_string(want) + " keys but the set holds " +
                            std::to_string(holds));
    }
    if (torn_ > 0) {
      violations_.push_back(what + " torn values: " + std::to_string(torn_) +
                            " lookups read a value no store wrote");
    }
  }

  // Every violation, once the run ended at `end_cycles`.
  std::vector<std::string> finish(std::uint64_t end_cycles) {
    threads_.finish(end_cycles);
    roles_.finish(end_cycles);
    std::vector<std::string> out = violations_;
    if (occupancy_.overlaps() > 0) {
      out.push_back("mutual exclusion: " +
                    std::to_string(occupancy_.overlaps()) +
                    " overlapping non-speculative critical sections");
    }
    if (occupancy_.rw_overlaps() > 0) {
      out.push_back("rw mutual exclusion: " +
                    std::to_string(occupancy_.rw_overlaps()) +
                    " non-speculative writer/reader overlaps");
    }
    for (const std::string& v : roles_.violations()) {
      out.push_back("role lockout: " + v);
    }
    for (const std::string& v : threads_.violations()) {
      out.push_back("starvation: " + v);
    }
    return out;
  }

 private:
  static std::vector<std::string> thread_names(int threads) {
    std::vector<std::string> names;
    for (int t = 0; t < threads; ++t) {
      names.push_back("thread " + std::to_string(t));
    }
    return names;
  }

  OccupancyChecker occupancy_;
  StarvationWatchdog threads_;
  StarvationWatchdog roles_;
  std::int64_t net_ = 0;
  std::uint64_t torn_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace elision::harness

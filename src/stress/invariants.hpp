// Invariant checkers for the schedule-exploration stress subsystem.
//
// All checker state is host-side: it is invisible to the simulated cache-
// coherence fabric (no Shared<T>), costs no virtual time, and therefore
// cannot perturb the very interleavings it is checking. The price is that
// checkers must be careful about speculative execution: a transactional
// body may run, be rolled back, and run again, so host-side counters are
// only touched from non-transactional executions (which never roll back).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/function_ref.hpp"
#include "tsx/tx_context.hpp"

namespace elision::stress {

// Mutual exclusion: at most one thread may be inside a critical section
// *non-speculatively* per lock. Speculative (transactional) executions
// legitimately overlap — the TM layer arbitrates them and rolls losers
// back — so only non-transactional occupancy counts. Run the critical-
// section body through occupy():
//
//   cs.run(ctx, [&] {
//     checker.occupy(ctx, [&] { ... body ... });
//   });
//
// Not an RAII guard: an abort restores the transaction's checkpoint without
// running destructors (Engine::attempt).
class MutualExclusionChecker {
 public:
  // Runs `body` as a non-speculative critical-section occupancy unless the
  // thread is in a transaction. The decision is taken on entry: an abort
  // can only discard a *transactional* occupancy (never counted), so a
  // counted one always reaches its exit.
  void occupy(tsx::Ctx& ctx, support::FunctionRef<void()> body) {
    const bool counted = !ctx.in_tx();
    if (counted && ++inside_ > 1) ++violations_;
    body();
    if (counted) --inside_;
  }

  std::uint64_t violations() const { return violations_; }
  void reset() {
    inside_ = 0;
    violations_ = 0;
  }

 private:
  int inside_ = 0;
  std::uint64_t violations_ = 0;
};

// Reader-writer mutual exclusion for the two-mode lock family: a
// non-speculative writer must exclude *everything*; non-speculative readers
// may overlap each other but never a writer. As with MutualExclusionChecker,
// speculative (transactional) occupancies legitimately overlap — the TM
// layer rolls losers back — so only non-transactional occupancies count,
// decided on entry as in MutualExclusionChecker::occupy. Run exclusive
// bodies through as_writer() and shared ones through as_reader().
class SharedMutualExclusionChecker {
 public:
  void as_writer(tsx::Ctx& ctx, support::FunctionRef<void()> body) {
    const bool counted = !ctx.in_tx();
    if (counted && (++writers_ > 1 || readers_ > 0)) ++violations_;
    body();
    if (counted) --writers_;
  }

  void as_reader(tsx::Ctx& ctx, support::FunctionRef<void()> body) {
    const bool counted = !ctx.in_tx();
    if (counted) {
      ++readers_;
      if (writers_ > 0) ++violations_;
    }
    body();
    if (counted) --readers_;
  }

  std::uint64_t violations() const { return violations_; }
  void reset() {
    writers_ = 0;
    readers_ = 0;
    violations_ = 0;
  }

 private:
  int writers_ = 0;
  int readers_ = 0;
  std::uint64_t violations_ = 0;
};

// Role-lockout watchdog for reader-writer locks: the role-granular sibling
// of StarvationWatchdog. Writer-preference locks can lock *readers* out
// under a continuous writer stream (the SharedTtasLock hazard); a broken
// reader protocol that ignores writer intent locks *writers* out under a
// continuous reader stream (the planted GreedySharedLock bug). Feed every
// completion with its role; a role silent for `gap_cycles` of virtual time
// while the other role completed at least `min_other_ops` regions is locked
// out — not merely idle.
class RoleLockoutChecker {
 public:
  RoleLockoutChecker(std::uint64_t gap_cycles, std::uint64_t min_other_ops)
      : gap_cycles_(gap_cycles), min_other_ops_(min_other_ops) {}

  void note_reader(std::uint64_t now) { note(0, now); }
  void note_writer(std::uint64_t now) { note(1, now); }

  // Call once after the run with the final virtual time: a role that fell
  // silent and never completed again is locked out too.
  void finish(std::uint64_t end_time) {
    for (int r = 0; r < 2; ++r) check_gap(r, end_time);
  }

  const std::vector<std::string>& violations() const { return violations_; }

 private:
  void note(int role, std::uint64_t now) {
    check_gap(role, now);
    auto& t = roles_[role];
    t.completions += 1;
    t.last_completion = now;
    t.other_at_last = roles_[1 - role].completions;
  }

  void check_gap(int role, std::uint64_t now) {
    const auto& t = roles_[role];
    const std::uint64_t gap = now - t.last_completion;
    const std::uint64_t other = roles_[1 - role].completions - t.other_at_last;
    if (gap > gap_cycles_ && other >= min_other_ops_) {
      violations_.push_back(
          std::string(role == 0 ? "reader" : "writer") +
          " lockout: no completion for " + std::to_string(gap) +
          " cycles while " + std::to_string(other) + " " +
          (role == 0 ? "writer" : "reader") + " completions went through");
    }
  }

  struct PerRole {
    std::uint64_t completions = 0;
    std::uint64_t last_completion = 0;
    std::uint64_t other_at_last = 0;
  };

  const std::uint64_t gap_cycles_;
  const std::uint64_t min_other_ops_;
  PerRole roles_[2];
  std::vector<std::string> violations_;
};

// Virtual-time livelock/starvation watchdog. Feed it every region
// completion (thread id + the completing thread's virtual clock); it flags
// any thread that went `gap_cycles` of simulated time without completing a
// region while the rest of the system completed at least `min_other_ops`
// regions — i.e. the thread was starved, not the system idle.
class StarvationWatchdog {
 public:
  StarvationWatchdog(int n_threads, std::uint64_t gap_cycles,
                     std::uint64_t min_other_ops)
      : gap_cycles_(gap_cycles),
        min_other_ops_(min_other_ops),
        threads_(static_cast<std::size_t>(n_threads)) {}

  void note_completion(int tid, std::uint64_t now) {
    ELISION_CHECK(tid >= 0 &&
                  static_cast<std::size_t>(tid) < threads_.size());
    auto& t = threads_[static_cast<std::size_t>(tid)];
    check_gap(tid, t, now);
    ++total_ops_;
    t.last_completion = now;
    t.ops_at_last = total_ops_;
  }

  // Call once after the run with the final virtual time: a thread that fell
  // silent and never completed again is starvation too.
  void finish(std::uint64_t end_time) {
    for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
      check_gap(static_cast<int>(tid), threads_[tid], end_time);
    }
  }

  const std::vector<std::string>& violations() const { return violations_; }

 private:
  struct PerThread {
    std::uint64_t last_completion = 0;
    std::uint64_t ops_at_last = 0;
  };

  void check_gap(int tid, const PerThread& t, std::uint64_t now) {
    const std::uint64_t gap = now - t.last_completion;
    const std::uint64_t other_ops = total_ops_ - t.ops_at_last;
    if (gap > gap_cycles_ && other_ops >= min_other_ops_) {
      violations_.push_back(
          "thread " + std::to_string(tid) + " completed nothing for " +
          std::to_string(gap) + " cycles while " +
          std::to_string(other_ops) + " other completions went through");
    }
  }

  const std::uint64_t gap_cycles_;
  const std::uint64_t min_other_ops_;
  std::vector<PerThread> threads_;
  std::uint64_t total_ops_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace elision::stress

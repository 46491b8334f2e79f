// Test-and-test-and-set spinlock with HLE support (paper Algorithm 1).
//
// In speculative elision mode the XACQUIRE-tagged test-and-set begins a
// transaction and elides the store; a thread arriving while the lock is held
// spins *before* the XACQUIRE, i.e. outside any transaction (this is the
// "newly arriving threads delay their entrance into a transactional
// execution" behaviour of Ch. 3).
#pragma once

#include <cstdint>

#include "support/align.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {

class TtasLock {
 public:
  static constexpr const char* kName = "TTAS";
  static constexpr bool kIsFair = false;

  void lock(tsx::Ctx& ctx) {
    // The first observation is a plain load: it feeds the arrival
    // statistics.
    const std::uint64_t first = word_.value.load(ctx);
    ++arrivals_;
    if (first != 0) {
      ++arrivals_lock_held_;
      ctx.engine().pause(ctx);
      wait_free(ctx);
    }
    while (word_.value.xacquire_exchange(ctx, 1) != 0) wait_free(ctx);
  }

  void unlock(tsx::Ctx& ctx) { word_.value.xrelease_store(ctx, 0); }

  bool is_held(tsx::Ctx& ctx) { return word_.value.load(ctx) != 0; }

  // Cache line of the elidable lock word (telemetry tagging).
  support::LineId lock_line() const { return support::line_of(&word_.value); }

  // Models the hardware's abort aftermath: the XACQUIRE store is re-issued
  // non-transactionally once. Returns true if that store acquired the lock
  // (the thread now runs the critical section non-speculatively); false if
  // the lock was held, in which case the software loop spins and the caller
  // may re-enter speculation (the TTAS recovery behaviour of Ch. 3).
  bool reissue_acquire_standard(tsx::Ctx& ctx) {
    ++arrivals_;
    if (word_.value.exchange(ctx, 1) == 0) return true;
    ++arrivals_lock_held_;
    return false;
  }

  // Arrival statistics ("TTAS Arrival with Lock Held" series of Fig 3.1).
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t arrivals_lock_held() const { return arrivals_lock_held_; }

 private:
  void wait_free(tsx::Ctx& ctx) {
    ctx.engine().spin_while(ctx, word_.value,
                            [](std::uint64_t v) { return v != 0; });
  }

  support::CacheAligned<tsx::Shared<std::uint64_t>> word_;
  // Host-side counters (not simulated state; they cost nothing).
  std::uint64_t arrivals_ = 0;
  std::uint64_t arrivals_lock_held_ = 0;
};

}  // namespace elision::locks

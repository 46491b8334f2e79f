// Ticket lock: the standard algorithm (paper Algorithm 4) and the
// HLE-adjusted variant (Algorithm 5, Ch. 6).
//
// The standard release (F&A on `owner`) does not restore the lock word the
// XACQUIRE elided (`next`), so standard ticket locks are HLE-incompatible:
// eliding one always aborts with an HLE mismatch. The adjustment releases by
// first attempting CAS(next, current+1, current) — undoing the acquisition —
// which in a speculative (or solo) run always succeeds and restores the
// original state, exactly as HLE requires (Theorem 1).
#pragma once

#include <array>
#include <cstdint>

#include "support/align.hpp"
#include "support/check.hpp"
#include "tsx/config.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {

template <bool kAdjusted>
class BasicTicketLock {
 public:
  static constexpr const char* kName = kAdjusted ? "Ticket-adj" : "Ticket";
  static constexpr bool kIsFair = true;
  static constexpr int kMaxThreads = tsx::kMaxThreads;

  void lock(tsx::Ctx& ctx) {
    ELISION_CHECK_MSG(ctx.id() >= 0 && ctx.id() < kMaxThreads,
                      "thread id outside the ticket lock's slot array");
    // `next` and `owner` share a cache line, as in the usual one-word
    // implementation the paper references.
    const std::uint64_t current = word_.value.next.xacquire_fetch_add(ctx, 1);
    current_[static_cast<std::size_t>(ctx.id())] = current;
    ctx.engine().spin_while(ctx, word_.value.owner, [current](std::uint64_t v) {
      return v != current;
    });
  }

  void unlock(tsx::Ctx& ctx) {
    const std::uint64_t current = current_[static_cast<std::size_t>(ctx.id())];
    if constexpr (kAdjusted) {
      // Algorithm 5: try to erase the acquisition. Fails only in a standard
      // run with other requesters, where the normal release takes over.
      if (!word_.value.next.xrelease_compare_exchange(ctx, current + 1,
                                                      current)) {
        word_.value.owner.fetch_add(ctx, 1);
      }
    } else {
      // Algorithm 4 under HLE: the XRELEASE store hits a different address
      // with a different value — the elision can never commit.
      word_.value.owner.xrelease_fetch_add(ctx, 1);
    }
  }

  bool is_held(tsx::Ctx& ctx) {
    return word_.value.next.load(ctx) != word_.value.owner.load(ctx);
  }

  // Cache line of the elidable lock word (telemetry tagging).
  support::LineId lock_line() const {
    return support::line_of(&word_.value.next);
  }

  bool reissue_acquire_standard(tsx::Ctx& ctx) {
    lock(ctx);
    return true;
  }

 private:
  struct Words {
    tsx::Shared<std::uint64_t> next;
    tsx::Shared<std::uint64_t> owner;
  };

  support::CacheAligned<Words> word_;
  // Per-thread ticket (private). Sized from the simulator-wide thread cap;
  // lock() bounds-checks the index so a larger simulated machine fails loudly
  // instead of silently corrupting neighbouring memory.
  std::array<std::uint64_t, kMaxThreads> current_{};
};

using TicketLock = BasicTicketLock<false>;
using TicketLockAdjusted = BasicTicketLock<true>;

}  // namespace elision::locks

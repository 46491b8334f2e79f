// MCS queue lock with HLE support (paper Algorithm 2).
//
// The MCS lock is the paper's representative fair lock: it is the only
// classic fair lock whose release restores the lock word (the queue tail) to
// its pre-acquire value in a solo run, which HLE requires. Under elision the
// XACQUIRE SWAP elides the enqueue; if the queue was non-empty the
// speculative thread spins transactionally and is doomed (the PAUSE aborts
// it), reproducing the avalanche dynamics of Ch. 3.
#pragma once

#include <array>
#include <cstdint>

#include "support/align.hpp"
#include "support/check.hpp"
#include "tsx/config.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {

class McsLock {
 public:
  static constexpr const char* kName = "MCS";
  static constexpr bool kIsFair = true;
  static constexpr int kMaxThreads = tsx::kMaxThreads;

  void lock(tsx::Ctx& ctx) {
    ELISION_CHECK_MSG(ctx.id() >= 0 && ctx.id() < kMaxThreads,
                      "thread id outside the MCS lock's node array");
    QNode& my = nodes_[static_cast<std::size_t>(ctx.id())];
    // Node initialization precedes the XACQUIRE: non-transactional.
    my.locked.store(ctx, 1);
    my.next.store(ctx, nullptr);
    QNode* pred = tail_.value.xacquire_exchange(ctx, &my);
    if (pred != nullptr) {
      pred->next.store(ctx, &my);
      ctx.engine().spin_while(ctx, my.locked,
                              [](std::uint64_t v) { return v != 0; });
    }
  }

  void unlock(tsx::Ctx& ctx) {
    QNode& my = nodes_[static_cast<std::size_t>(ctx.id())];
    if (my.next.load(ctx) == nullptr) {
      if (tail_.value.xrelease_compare_exchange(ctx, &my, nullptr)) return;
      ctx.engine().spin_while(ctx, my.next,
                              [](QNode* n) { return n == nullptr; });
    }
    my.next.load(ctx)->locked.store(ctx, 0);
  }

  bool is_held(tsx::Ctx& ctx) { return tail_.value.load(ctx) != nullptr; }

  // Cache line of the elidable lock word (telemetry tagging).
  support::LineId lock_line() const { return support::line_of(&tail_.value); }

  // Abort aftermath: the SWAP is re-issued non-transactionally, enqueueing
  // the thread for a non-speculative critical section (fair locks "remember"
  // the conflict — Ch. 3). Always acquires.
  bool reissue_acquire_standard(tsx::Ctx& ctx) {
    lock(ctx);  // ctx is in standard mode: the SWAP executes for real
    return true;
  }

 private:
  struct alignas(support::kCacheLineBytes) QNode {
    tsx::Shared<QNode*> next;
    tsx::Shared<std::uint64_t> locked;
  };

  support::CacheAligned<tsx::Shared<QNode*>> tail_;
  std::array<QNode, kMaxThreads> nodes_;
};

}  // namespace elision::locks

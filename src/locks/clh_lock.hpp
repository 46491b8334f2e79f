// CLH queue lock: the standard algorithm (paper Algorithm 6) and the
// HLE-adjusted variant (Algorithm 7, Ch. 6).
//
// A standard CLH release writes the *node's* locked flag, not the queue
// tail the XACQUIRE elided, so it cannot commit an elided acquisition. The
// adjustment first attempts CAS(tail, myNode, pred), erasing the node from
// the queue; in a speculative (or solo) run this always succeeds and
// restores the tail (Theorem 2). On the CAS-success path the thread keeps
// its node (it was never exposed); on the failure path it releases normally
// and recycles its predecessor's node.
#pragma once

#include <array>
#include <cstdint>

#include "support/align.hpp"
#include "support/check.hpp"
#include "tsx/config.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {

template <bool kAdjusted>
class BasicClhLock {
 public:
  static constexpr const char* kName = kAdjusted ? "CLH-adj" : "CLH";
  static constexpr bool kIsFair = true;
  static constexpr int kMaxThreads = tsx::kMaxThreads;

  BasicClhLock() {
    tail_.value.unsafe_set(&nodes_[kMaxThreads]);  // dummy, unlocked
    for (int i = 0; i < kMaxThreads; ++i) my_[i] = &nodes_[i];
  }

  void lock(tsx::Ctx& ctx) {
    ELISION_CHECK_MSG(ctx.id() >= 0 && ctx.id() < kMaxThreads,
                      "thread id outside the CLH lock's node array");
    const auto id = static_cast<std::size_t>(ctx.id());
    QNode* my = my_[id];
    my->locked.store(ctx, 1);  // before the XACQUIRE: non-transactional
    QNode* pred = tail_.value.xacquire_exchange(ctx, my);
    pred_[id] = pred;
    ctx.engine().spin_while(ctx, pred->locked,
                            [](std::uint64_t v) { return v != 0; });
  }

  void unlock(tsx::Ctx& ctx) {
    const auto id = static_cast<std::size_t>(ctx.id());
    QNode* my = my_[id];
    QNode* pred = pred_[id];
    if constexpr (kAdjusted) {
      if (tail_.value.xrelease_compare_exchange(ctx, my, pred)) {
        return;  // presence erased; we keep our node
      }
      my->locked.store(ctx, 0);
      my_[id] = pred;
    } else {
      // Algorithm 6 under HLE: releases a different address — never commits.
      my->locked.xrelease_store(ctx, 0);
      my_[id] = pred;
    }
  }

  bool is_held(tsx::Ctx& ctx) {
    QNode* tail = tail_.value.load(ctx);
    return tail->locked.load(ctx) != 0;
  }

  bool reissue_acquire_standard(tsx::Ctx& ctx) {
    lock(ctx);
    return true;
  }

 private:
  struct alignas(support::kCacheLineBytes) QNode {
    tsx::Shared<std::uint64_t> locked;
  };

  support::CacheAligned<tsx::Shared<QNode*>> tail_;
  std::array<QNode, kMaxThreads + 1> nodes_;  // +1: initial dummy
  std::array<QNode*, kMaxThreads> my_{};
  std::array<QNode*, kMaxThreads> pred_{};
};

using ClhLock = BasicClhLock<false>;
using ClhLockAdjusted = BasicClhLock<true>;

}  // namespace elision::locks

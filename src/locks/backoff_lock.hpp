// TTAS lock with exponential backoff: the classic contention-throttling
// variant, included for the related-work comparison (Dice et al. [10] use
// backoff to soften the lemming effect that SCM prevents outright, Ch. 8).
//
// Under elision, backoff delays the re-issued acquisition after an abort,
// giving in-flight speculators a window to finish — a *mitigation* of the
// avalanche, where SCM is a *fix*. The ablation bench contrasts the two.
#pragma once

#include <cstdint>

#include "support/align.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {

class BackoffTtasLock {
 public:
  static constexpr const char* kName = "TTAS-backoff";
  static constexpr bool kIsFair = false;

  void lock(tsx::Ctx& ctx) {
    std::uint64_t delay = kMinDelay;
    for (;;) {
      ctx.engine().spin_while(ctx, word_.value,
                              [](std::uint64_t v) { return v != 0; });
      if (word_.value.xacquire_exchange(ctx, 1) == 0) return;
      backoff(ctx, &delay);
    }
  }

  void unlock(tsx::Ctx& ctx) { word_.value.xrelease_store(ctx, 0); }

  bool is_held(tsx::Ctx& ctx) { return word_.value.load(ctx) != 0; }

  bool reissue_acquire_standard(tsx::Ctx& ctx) {
    // Back off before re-issuing the store: the Dice et al. mitigation.
    std::uint64_t delay = kMinDelay * 4;
    backoff(ctx, &delay);
    return word_.value.exchange(ctx, 1) == 0;
  }

 private:
  static constexpr std::uint64_t kMinDelay = 64;
  static constexpr std::uint64_t kMaxDelay = 8192;

  static void backoff(tsx::Ctx& ctx, std::uint64_t* delay) {
    // Randomized exponential backoff, charged as pure waiting time. Never
    // called transactionally (the pre-XACQUIRE path spins with PAUSE).
    const std::uint64_t wait =
        *delay / 2 + ctx.thread().rng().next_below(*delay / 2 + 1);
    ctx.engine().compute(ctx, wait);
    *delay = *delay * 2 > kMaxDelay ? kMaxDelay : *delay * 2;
  }

  support::CacheAligned<tsx::Shared<std::uint64_t>> word_;
};

}  // namespace elision::locks

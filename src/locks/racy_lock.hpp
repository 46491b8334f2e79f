// A deliberately broken spinlock: the classic check-then-act race.
//
// lock() tests the word and then stores 1 in a *separate* access, so two
// threads can both observe 0 and both "acquire". Each access is a tick
// that may yield, so even the unperturbed earliest-first schedule
// interleaves inside that window (stress_test's control run shows it).
// This lock is a self-test instrument for src/stress (are the checkers
// able to catch, and the harness to shrink, a real interleaving bug?); its
// registry row
// (locks/registry.hpp) is marked planted, so no experiment and no
// `--locks all` sweep runs it.
//
// Only meaningful under Scheme::kStandard: it performs no XACQUIRE, so
// there is nothing to elide.
#pragma once

#include <cstdint>

#include "support/align.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {

class RacyLock {
 public:
  static constexpr const char* kName = "Racy";
  static constexpr bool kIsFair = false;

  void lock(tsx::Ctx& ctx) {
    for (;;) {
      if (word_.value.load(ctx) == 0) break;  // test ...
      ctx.engine().pause(ctx);
    }
    word_.value.store(ctx, 1);  // ... then act: not atomic. The bug.
  }

  void unlock(tsx::Ctx& ctx) { word_.value.store(ctx, 0); }

  bool is_held(tsx::Ctx& ctx) { return word_.value.load(ctx) != 0; }

  bool reissue_acquire_standard(tsx::Ctx& ctx) {
    lock(ctx);
    return true;
  }

 private:
  support::CacheAligned<tsx::Shared<std::uint64_t>> word_;
};

}  // namespace elision::locks

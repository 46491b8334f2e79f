// Lock library tests: mutual exclusion, fairness, and the Ch. 6
// HLE adjustments of the ticket and CLH locks (Theorems 1 and 2).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "locks/clh_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/policy.hpp"
#include "locks/region.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {
namespace {

using tsx::Ctx;

sim::MachineConfig quiet_machine() {
  sim::MachineConfig m;
  m.n_cores = 8;
  m.smt_per_core = 1;
  return m;
}

tsx::TsxConfig quiet_tsx() {
  tsx::TsxConfig t;
  t.spurious_per_begin = 0;
  t.spurious_per_access = 0;
  return t;
}

template <typename Lock>
struct LockTestNames;
template <>
struct LockTestNames<TtasLock> {
  static constexpr const char* name = "TTAS";
};

// ---------------------------------------------------------------------------
// Mutual exclusion (typed across all lock variants)
// ---------------------------------------------------------------------------

template <typename Lock>
class MutexTest : public ::testing::Test {};

using AllLocks = ::testing::Types<TtasLock, McsLock, TicketLock,
                                  TicketLockAdjusted, ClhLock,
                                  ClhLockAdjusted>;
TYPED_TEST_SUITE(MutexTest, AllLocks);

TYPED_TEST(MutexTest, StandardModeMutualExclusion) {
  using Lock = TypeParam;
  Lock lock;
  tsx::Shared<std::uint64_t> counter(0);
  tsx::Shared<std::uint64_t> in_cs(0);
  bool violation = false;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  constexpr int kThreads = 6, kIters = 150;
  for (int t = 0; t < kThreads; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < kIters; ++k) {
        lock.lock(ctx);
        if (in_cs.load(ctx) != 0) violation = true;
        in_cs.store(ctx, 1);
        counter.store(ctx, counter.load(ctx) + 1);
        ctx.engine().compute(ctx, 20);
        in_cs.store(ctx, 0);
        lock.unlock(ctx);
      }
    });
  }
  sched.run();
  EXPECT_FALSE(violation);
  EXPECT_EQ(counter.unsafe_get(), kThreads * kIters);
}

TYPED_TEST(MutexTest, SoloLockUnlockLeavesNoTrace) {
  // Theorems 1(i)/2(i) applied in a standard solo run: after lock+unlock
  // with no other requesters, a fresh thread can still acquire immediately
  // (and for the adjusted locks the lock words are literally restored —
  // checked indirectly by repeating many times without drift).
  using Lock = TypeParam;
  Lock lock;
  tsx::Shared<std::uint64_t> counter(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    for (int k = 0; k < 300; ++k) {
      lock.lock(ctx);
      counter.store(ctx, counter.load(ctx) + 1);
      lock.unlock(ctx);
      EXPECT_FALSE(lock.is_held(ctx));
    }
  });
  sched.run();
  EXPECT_EQ(counter.unsafe_get(), 300u);
}

TYPED_TEST(MutexTest, IsHeldTracksState) {
  using Lock = TypeParam;
  Lock lock;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    EXPECT_FALSE(lock.is_held(ctx));
    lock.lock(ctx);
    EXPECT_TRUE(lock.is_held(ctx));
    lock.unlock(ctx);
    EXPECT_FALSE(lock.is_held(ctx));
  });
  sched.run();
}

// ---------------------------------------------------------------------------
// Fairness (FIFO) of the queue/ticket locks
// ---------------------------------------------------------------------------

template <typename Lock>
void expect_fifo_order() {
  Lock lock;
  std::vector<int> acquisition_order;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  // Thread 0 takes the lock first and holds it long; the rest arrive at
  // staggered, deterministic times and must acquire in arrival order.
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    lock.lock(ctx);
    acquisition_order.push_back(0);
    ctx.engine().compute(ctx, 50000);
    lock.unlock(ctx);
  });
  for (int i = 1; i < 6; ++i) {
    sched.spawn([&, i](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      ctx.engine().compute(ctx, 1000 * static_cast<std::uint64_t>(i));
      lock.lock(ctx);
      acquisition_order.push_back(i);
      lock.unlock(ctx);
    });
  }
  sched.run();
  EXPECT_EQ(acquisition_order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// Regression: the per-thread slot arrays (ticket/MCS/CLH) were hard-coded
// to 64 entries while the scheduler's thread cap lived elsewhere; a larger
// simulated machine would have silently corrupted neighbouring memory. The
// arrays are now sized from tsx::kMaxThreads (the single source of truth)
// and lock() bounds-checks the id — so the locks must work, not just
// compile, at exactly the cap.
template <typename Lock>
void expect_correct_at_thread_cap() {
  Lock lock;
  tsx::Shared<std::uint64_t> counter(0);
  sim::MachineConfig m = quiet_machine();
  sim::Scheduler sched(m);
  tsx::Engine eng(sched, quiet_tsx());
  constexpr int kThreads = tsx::kMaxThreads;
  constexpr int kIters = 5;
  for (int t = 0; t < kThreads; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < kIters; ++k) {
        lock.lock(ctx);
        counter.store(ctx, counter.load(ctx) + 1);
        lock.unlock(ctx);
      }
    });
  }
  sched.run();
  EXPECT_EQ(counter.unsafe_get(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(ThreadCap, TicketAtMaxThreads) {
  expect_correct_at_thread_cap<TicketLock>();
}
TEST(ThreadCap, TicketAdjustedAtMaxThreads) {
  expect_correct_at_thread_cap<TicketLockAdjusted>();
}
TEST(ThreadCap, McsAtMaxThreads) { expect_correct_at_thread_cap<McsLock>(); }
TEST(ThreadCap, ClhAtMaxThreads) { expect_correct_at_thread_cap<ClhLock>(); }
TEST(ThreadCap, ClhAdjustedAtMaxThreads) {
  expect_correct_at_thread_cap<ClhLockAdjusted>();
}

TEST(Fairness, McsIsFifo) { expect_fifo_order<McsLock>(); }
TEST(Fairness, TicketIsFifo) { expect_fifo_order<TicketLock>(); }
TEST(Fairness, TicketAdjustedIsFifo) { expect_fifo_order<TicketLockAdjusted>(); }
TEST(Fairness, ClhIsFifo) { expect_fifo_order<ClhLock>(); }
TEST(Fairness, ClhAdjustedIsFifo) { expect_fifo_order<ClhLockAdjusted>(); }

// ---------------------------------------------------------------------------
// Ch. 6: HLE compatibility of the adjusted locks
// ---------------------------------------------------------------------------

template <typename Lock>
RegionResult one_elision(Lock& lock, tsx::Shared<std::uint64_t>& data) {
  RegionResult r;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    r = hle_region(ctx, lock, [&] {
      data.store(ctx, data.load(ctx) + 1);
    });
  });
  sched.run();
  return r;
}

TEST(Ch6, UnadjustedTicketCannotElide) {
  // Algorithm 4's release (F&A owner) never restores the elided `next`:
  // every speculative attempt must abort and complete non-speculatively.
  TicketLock lock;
  tsx::Shared<std::uint64_t> data(0);
  const auto r = one_elision(lock, data);
  EXPECT_FALSE(r.speculative);
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(Ch6, AdjustedTicketElides) {
  TicketLockAdjusted lock;
  tsx::Shared<std::uint64_t> data(0);
  const auto r = one_elision(lock, data);
  EXPECT_TRUE(r.speculative);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(Ch6, UnadjustedClhCannotElide) {
  ClhLock lock;
  tsx::Shared<std::uint64_t> data(0);
  const auto r = one_elision(lock, data);
  EXPECT_FALSE(r.speculative);
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(Ch6, AdjustedClhElides) {
  ClhLockAdjusted lock;
  tsx::Shared<std::uint64_t> data(0);
  const auto r = one_elision(lock, data);
  EXPECT_TRUE(r.speculative);
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(Ch6, McsElides) {
  McsLock lock;
  tsx::Shared<std::uint64_t> data(0);
  const auto r = one_elision(lock, data);
  EXPECT_TRUE(r.speculative);
}

template <typename Lock>
void expect_concurrent_elision() {
  // Non-conflicting critical sections under the adjusted fair locks must run
  // concurrently (all speculative).
  Lock lock;
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> slots(6);
  int nonspec = 0;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int i = 0; i < 6; ++i) {
    sched.spawn([&, i](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 40; ++k) {
        const auto r = hle_region(ctx, lock, [&] {
          slots[i].value.store(ctx, slots[i].value.load(ctx) + 1);
        });
        if (!r.speculative) ++nonspec;
      }
    });
  }
  sched.run();
  EXPECT_EQ(nonspec, 0);
  for (auto& s : slots) EXPECT_EQ(s.value.unsafe_get(), 40u);
}

TEST(Ch6, AdjustedTicketConcurrentElision) {
  expect_concurrent_elision<TicketLockAdjusted>();
}
TEST(Ch6, AdjustedClhConcurrentElision) {
  expect_concurrent_elision<ClhLockAdjusted>();
}
TEST(Ch6, McsConcurrentElision) { expect_concurrent_elision<McsLock>(); }

TEST(Ch6, AdjustedTicketMixedSpeculativeAndStandard) {
  // Theorem 1(ii) mixed runs: standard acquisitions interleaved with
  // speculative ones preserve mutual exclusion and never lose counts.
  TicketLockAdjusted lock;
  tsx::Shared<std::uint64_t> counter(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  constexpr int kThreads = 6, kIters = 100;
  for (int t = 0; t < kThreads; ++t) {
    sched.spawn([&, t](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < kIters; ++k) {
        if (t % 2 == 0) {
          lock.lock(ctx);  // standard
          counter.store(ctx, counter.load(ctx) + 1);
          lock.unlock(ctx);
        } else {
          hle_region(ctx, lock, [&] {
            counter.store(ctx, counter.load(ctx) + 1);
          });
        }
      }
    });
  }
  sched.run();
  EXPECT_EQ(counter.unsafe_get(), kThreads * kIters);
}

TEST(Ch6, AdjustedClhMixedSpeculativeAndStandard) {
  ClhLockAdjusted lock;
  tsx::Shared<std::uint64_t> counter(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  constexpr int kThreads = 6, kIters = 100;
  for (int t = 0; t < kThreads; ++t) {
    sched.spawn([&, t](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < kIters; ++k) {
        if (t % 2 == 0) {
          lock.lock(ctx);
          counter.store(ctx, counter.load(ctx) + 1);
          lock.unlock(ctx);
        } else {
          hle_region(ctx, lock, [&] {
            counter.store(ctx, counter.load(ctx) + 1);
          });
        }
      }
    });
  }
  sched.run();
  EXPECT_EQ(counter.unsafe_get(), kThreads * kIters);
}

// ---------------------------------------------------------------------------
// Fair locks "remember" conflicts (the Ch. 3 serialization behaviour)
// ---------------------------------------------------------------------------

// Fraction of operations completing non-speculatively under an HLE'd lock,
// with each operation touching one of `slots_n` padded words (slots_n = 1
// means every critical section conflicts).
template <typename Lock>
double nonspec_fraction_under_conflicts(int slots_n = 1) {
  Lock lock;
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> slots(
      static_cast<std::size_t>(slots_n));
  std::uint64_t total = 0, nonspec = 0;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 8; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      while (!st.stop_requested()) {
        auto& hot =
            slots[st.rng().next_below(static_cast<std::uint64_t>(slots_n))]
                .value;
        const auto r = hle_region(ctx, lock, [&] {
          hot.store(ctx, hot.load(ctx) + 1);
          ctx.engine().compute(ctx, 100);
        });
        ++total;
        if (!r.speculative) ++nonspec;
      }
    });
  }
  sched.run_for(400000);
  return static_cast<double>(nonspec) / static_cast<double>(total);
}

TEST(Avalanche, FairLocksSerializeUnderConflicts) {
  // With all-conflicting critical sections, the HLE'd fair locks execute
  // almost everything non-speculatively...
  EXPECT_GT(nonspec_fraction_under_conflicts<McsLock>(), 0.9);
  EXPECT_GT(nonspec_fraction_under_conflicts<TicketLockAdjusted>(), 0.9);
  EXPECT_GT(nonspec_fraction_under_conflicts<ClhLockAdjusted>(), 0.9);
}

TEST(Avalanche, FairLocksStaySerializedAtModerateConflict) {
  // Fair locks "remember" conflicts: even when only ~1/16 of operation
  // pairs actually conflict, the MCS queue keeps everything serialized
  // (recovery needs a quiescence period, Ch. 3).
  EXPECT_GT(nonspec_fraction_under_conflicts<McsLock>(16), 0.9);
}

TEST(Avalanche, TtasRecoversAtModerateConflict) {
  // ...while TTAS re-enters speculation between conflicts: at the same
  // moderate conflict level most operations complete speculatively.
  const double f = nonspec_fraction_under_conflicts<TtasLock>(16);
  EXPECT_LT(f, 0.6);
}

TEST(Ttas, ArrivalStatsCount) {
  TtasLock lock;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    ctx.set_mode(tsx::ElisionMode::kStandard);
    lock.lock(ctx);
    lock.unlock(ctx);
  });
  sched.run();
  EXPECT_EQ(lock.arrivals(), 1u);
  EXPECT_EQ(lock.arrivals_lock_held(), 0u);
}

// --- ElisionPolicy spec grammar: the one spelling shared by bench point
// ids, stress case names, and every CLI flag (see locks/policy.hpp). ---

TEST(PolicySpec, NamedConstructorsRoundTrip) {
  const ElisionPolicy policies[] = {
      ElisionPolicy::standard(),        ElisionPolicy::hle(),
      ElisionPolicy::hle_scm(),         ElisionPolicy::pes_slr(),
      ElisionPolicy::opt_slr(),         ElisionPolicy::opt_slr_scm(),
      ElisionPolicy::rtm_elide(),       ElisionPolicy::hle_scm_nested(),
      ElisionPolicy::hle_grouped_scm(), ElisionPolicy::hle().shared(),
      ElisionPolicy::hle_scm().shared(), ElisionPolicy::adaptive(),
      ElisionPolicy::adaptive().with_adaptive_window(16),
      ElisionPolicy::adaptive().with_adaptive_thresholds(70, 5),
      ElisionPolicy::adaptive().with_adaptive_dwell(4),
  };
  for (const ElisionPolicy& p : policies) {
    const auto back = ElisionPolicy::parse(p.spec());
    ASSERT_TRUE(back.has_value()) << p.spec();
    EXPECT_EQ(back->spec(), p.spec());
    EXPECT_EQ(back->scheme, p.scheme) << p.spec();
    EXPECT_EQ(back->mode, p.mode) << p.spec();
  }
}

TEST(PolicySpec, SchemeDefaultsSpellAsBareSlug) {
  for (const Scheme s : kAllSchemes) {
    EXPECT_EQ(ElisionPolicy::from_scheme(s).spec(), scheme_slug(s));
  }
}

TEST(PolicySpec, KnobsRoundTripAndNonDefaultsOnlyAppear) {
  const ElisionPolicy p = ElisionPolicy::hle_scm().with_max_spec_attempts(5);
  const std::string spec = p.spec();
  EXPECT_NE(spec.find("spec-attempts=5"), std::string::npos) << spec;
  const auto back = ElisionPolicy::parse(spec);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->retry.max_spec_attempts, 5);
  EXPECT_EQ(back->spec(), spec);
}

TEST(PolicySpec, AdaptiveKnobsRoundTrip) {
  const ElisionPolicy p = ElisionPolicy::adaptive()
                              .with_adaptive_window(64)
                              .with_adaptive_thresholds(55, 5)
                              .with_adaptive_dwell(3);
  const std::string spec = p.spec();
  EXPECT_EQ(spec, "adaptive:window=64:up=55:down=5:dwell=3");
  const auto back = ElisionPolicy::parse(spec);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->adapt.window, 64);
  EXPECT_EQ(back->adapt.up_pct, 55);
  EXPECT_EQ(back->adapt.down_pct, 5);
  EXPECT_EQ(back->adapt.dwell, 3);
  EXPECT_EQ(*back, p);
}

TEST(PolicySpec, ParseAcceptsLegacyMixedCaseAndSharedSuffix) {
  const auto legacy = ElisionPolicy::parse("HLE-SCM");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->scheme, Scheme::kHleScm);
  const auto shared = ElisionPolicy::parse("hle+shared");
  ASSERT_TRUE(shared.has_value());
  EXPECT_EQ(shared->mode, AccessMode::kShared);
  EXPECT_EQ(shared->spec(), "hle+shared");
}

TEST(PolicySpec, ParseRejectsGarbage) {
  EXPECT_FALSE(ElisionPolicy::parse("").has_value());
  EXPECT_FALSE(ElisionPolicy::parse("htm-magic").has_value());
  EXPECT_FALSE(ElisionPolicy::parse("hle:imaginary-knob=3").has_value());
  EXPECT_FALSE(ElisionPolicy::parse("hle+exclusive-ish").has_value());
}

TEST(PolicySpec, ParseRejectsOutOfRangeKnobValues) {
  // Negative values must not wrap through strtoull's modular arithmetic
  // into huge positives.
  EXPECT_FALSE(ElisionPolicy::parse("hle:spec-attempts=-1").has_value());
  EXPECT_FALSE(ElisionPolicy::parse("hle:backoff=-7").has_value());
  EXPECT_FALSE(ElisionPolicy::parse("adaptive:window=-5").has_value());
  EXPECT_FALSE(ElisionPolicy::parse("adaptive:up=-60").has_value());
  // Values past INT_MAX must be rejected, not truncated by the int cast.
  EXPECT_FALSE(ElisionPolicy::parse("hle:spec-attempts=4294967296")
                   .has_value());
  EXPECT_FALSE(
      ElisionPolicy::parse("adaptive:window=99999999999999999999999")
          .has_value());
  // Other non-numeric noise in the value position.
  EXPECT_FALSE(ElisionPolicy::parse("adaptive:window=").has_value());
  EXPECT_FALSE(ElisionPolicy::parse("adaptive:window=ten").has_value());
  EXPECT_FALSE(ElisionPolicy::parse("adaptive:window=3x").has_value());
  EXPECT_FALSE(ElisionPolicy::parse("adaptive:window=+3").has_value());
}

}  // namespace
}  // namespace elision::locks

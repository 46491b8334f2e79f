// Tests for the extensions beyond the paper's evaluated artifacts: abort
// feedback (conflict line/thread), the grouped-SCM future-work scheme, the
// engine's telemetry event log, and the backoff TTAS lock.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "locks/backoff_lock.hpp"
#include "locks/grouped_scm.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "tsx/shared.hpp"
#include "tsx/telemetry.hpp"

namespace elision {
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

// ---------------------------------------------------------------------------
// Abort feedback
// ---------------------------------------------------------------------------

TEST(AbortFeedback, ConflictLineAndThreadReported) {
  support::CacheAligned<tsx::Shared<std::uint64_t>> hot;
  support::LineId reported_line = 0;
  int reported_thread = -2;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    const unsigned status = eng.run_transaction(ctx, [&] {
      (void)hot.value.load(ctx);
      ctx.engine().compute(ctx, 2000);
      (void)hot.value.load(ctx);
    });
    EXPECT_NE(status, tsx::kCommitted);
    reported_line = ctx.last_conflict_line();
    reported_thread = ctx.last_conflict_thread();
  });
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    ctx.engine().compute(ctx, 300);
    hot.value.store(ctx, 1);  // direct write aborts the reader
  });
  sched.run();
  EXPECT_EQ(reported_line, support::line_of(&hot.value));
  EXPECT_EQ(reported_thread, 1);
}

TEST(AbortFeedback, NonConflictAbortsCarryNoLocation) {
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    eng.run_transaction(ctx, [&] { eng.xabort(ctx, 1); });
    EXPECT_EQ(ctx.last_conflict_line(), 0u);
    EXPECT_EQ(ctx.last_conflict_thread(), -1);
  });
  sched.run();
}

// ---------------------------------------------------------------------------
// Grouped SCM
// ---------------------------------------------------------------------------

TEST(GroupedScm, ConflictingThreadsProgress) {
  locks::TtasLock main;
  locks::AuxLockBank<locks::McsLock, 8> bank;
  tsx::Shared<std::uint64_t> hot(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  constexpr int kThreads = 8, kIters = 120;
  std::uint64_t nonspec = 0;
  for (int t = 0; t < kThreads; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < kIters; ++k) {
        const auto r = locks::grouped_scm_region(
            ctx, main, bank, locks::GroupedScmParams{}, [&] {
              hot.store(ctx, hot.load(ctx) + 1);
            });
        if (!r.speculative) ++nonspec;
      }
    });
  }
  sched.run();
  EXPECT_EQ(hot.unsafe_get(), kThreads * kIters);
  EXPECT_LT(static_cast<double>(nonspec) / (kThreads * kIters), 0.1);
}

TEST(GroupedScm, DisjointConflictGroupsKeepParity) {
  // Two independent hot pairs. The future-work hypothesis (Ch. 4 Remark) is
  // that per-conflict-line groups beat one global serializer. Our ablation
  // (`elide figure abl-grouped-scm`) finds parity at best in hammering
  // regimes: the give-up path and first-attempt racers dominate, and
  // lock-busy aborts carry no conflict line to group by. This test pins the
  // implementation to correctness and rough parity (within 35% of
  // single-aux SCM).
  locks::TtasLock main_grouped, main_single;
  locks::AuxLockBank<locks::McsLock, 8> bank;
  locks::McsLock single_aux;
  support::CacheAligned<tsx::Shared<std::uint64_t>> hot_a, hot_b;

  auto run = [&](bool grouped, auto& main) {
    sim::Scheduler sched(quiet_machine());
    tsx::Engine eng(sched, quiet_tsx());
    hot_a.value.unsafe_set(0);
    hot_b.value.unsafe_set(0);
    for (int t = 0; t < 8; ++t) {
      sched.spawn([&, t](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        auto& mine = (t % 2 == 0) ? hot_a.value : hot_b.value;
        while (!st.stop_requested()) {
          if (grouped) {
            locks::grouped_scm_region(ctx, main, bank,
                                      locks::GroupedScmParams{}, [&] {
                                        mine.store(ctx, mine.load(ctx) + 1);
                                        ctx.engine().compute(ctx, 300);
                                      });
          } else {
            locks::scm_region(ctx, main, single_aux, locks::ScmParams{}, [&] {
              mine.store(ctx, mine.load(ctx) + 1);
              ctx.engine().compute(ctx, 300);
            });
          }
        }
      });
    }
    sched.run_for(400000);
    return hot_a.value.unsafe_get() + hot_b.value.unsafe_get();
  };

  const std::uint64_t single = run(false, main_single);
  const std::uint64_t multi = run(true, main_grouped);
  EXPECT_GT(static_cast<double>(multi),
            0.65 * static_cast<double>(single));
}

TEST(GroupedScm, GivesUpAfterMaxRetries) {
  locks::TtasLock main;
  locks::AuxLockBank<locks::McsLock, 8> bank;
  constexpr std::size_t kLines = 600;
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> big(kLines);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    locks::GroupedScmParams p;
    p.max_retries = 2;
    const auto r = locks::grouped_scm_region(ctx, main, bank, p, [&] {
      for (auto& b : big) b.value.store(ctx, 1);
    });
    EXPECT_FALSE(r.speculative);
  });
  sched.run();
  for (auto& b : big) EXPECT_EQ(b.value.unsafe_get(), 1u);
}

TEST(GroupedScm, AvailableThroughSchemeRunner) {
  locks::TtasLock main;
  locks::CriticalSection<locks::TtasLock> cs(
      locks::ElisionPolicy::hle_grouped_scm(), main);
  tsx::Shared<std::uint64_t> counter(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 4; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 50; ++k) {
        cs.run(ctx, [&] { counter.store(ctx, counter.load(ctx) + 1); });
      }
    });
  }
  sched.run();
  EXPECT_EQ(counter.unsafe_get(), 200u);
}

// ---------------------------------------------------------------------------
// Telemetry driven by the engine
// ---------------------------------------------------------------------------

class EngineTelemetry : public ::testing::Test {
 protected:
  void SetUp() override { eng.set_telemetry(&telemetry); }
  std::size_t count(tsx::EventKind kind) const {
    std::size_t n = 0;
    for (const auto& e : telemetry.merged()) n += e.kind == kind ? 1 : 0;
    return n;
  }

  tsx::Telemetry telemetry;
  sim::Scheduler sched{quiet_machine()};
  tsx::Engine eng{sched, quiet_tsx()};
};

TEST_F(EngineTelemetry, RecordsBeginCommitAbort) {
  tsx::Shared<std::uint64_t> x(0);
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    for (int i = 0; i < 5; ++i) {
      eng.run_transaction(ctx, [&] { x.store(ctx, i); });
    }
    eng.run_transaction(ctx, [&] { eng.xabort(ctx, 2); });
  });
  sched.run();
  EXPECT_EQ(count(tsx::EventKind::kTxBegin), 6u);
  EXPECT_EQ(count(tsx::EventKind::kTxCommit), 5u);
  ASSERT_EQ(count(tsx::EventKind::kTxAbort), 1u);
  for (const auto& e : telemetry.merged()) {
    if (e.kind != tsx::EventKind::kTxAbort) continue;
    EXPECT_EQ(e.cause, tsx::AbortCause::kExplicit);
  }
}

TEST_F(EngineTelemetry, TimestampsAreMonotonicPerThread) {
  tsx::Shared<std::uint64_t> x(0);
  for (int t = 0; t < 3; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int i = 0; i < 20; ++i) {
        eng.run_transaction(ctx, [&] { (void)x.load(ctx); });
      }
    });
  }
  sched.run();
  EXPECT_EQ(telemetry.total_recorded(), 3u * 20u * 2u);  // begin + commit
  // Walk each ring in recording order: merged() sorts by timestamp, so it
  // would hide an engine that stamps a thread's events out of order.
  for (int t = 0; t < 3; ++t) {
    const tsx::EventRing& ring = telemetry.ring(t);
    EXPECT_EQ(ring.size(), 20u * 2u);
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const tsx::TelemetryEvent& e = ring[i];
      EXPECT_EQ(e.thread, t);
      EXPECT_GE(e.timestamp, last);
      last = e.timestamp;
    }
  }
}

TEST_F(EngineTelemetry, AbortEventsCarryConflictLocation) {
  support::CacheAligned<tsx::Shared<std::uint64_t>> hot;
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    eng.run_transaction(ctx, [&] {
      (void)hot.value.load(ctx);
      ctx.engine().compute(ctx, 2000);
      (void)hot.value.load(ctx);
    });
  });
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    ctx.engine().compute(ctx, 300);
    hot.value.store(ctx, 1);
  });
  sched.run();
  ASSERT_EQ(count(tsx::EventKind::kTxAbort), 1u);
  for (const auto& e : telemetry.merged()) {
    if (e.kind != tsx::EventKind::kTxAbort) continue;
    EXPECT_EQ(e.thread, 0);
    EXPECT_EQ(e.cause, tsx::AbortCause::kConflict);
    EXPECT_EQ(e.line, support::line_of(&hot.value));
    EXPECT_EQ(e.other_thread, 1);
  }
}

TEST_F(EngineTelemetry, CsvDumpHasHeaderAndRows) {
  tsx::Shared<std::uint64_t> x(0);
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    eng.run_transaction(ctx, [&] { x.store(ctx, 1); });
  });
  sched.run();
  const auto events = telemetry.merged();
  ASSERT_EQ(events.size(), 2u);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  telemetry.dump_csv(f);
  std::rewind(f);
  char line[128] = {};
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  EXPECT_STREQ(line, "timestamp,thread,kind,cause,line,other_thread\n");
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  EXPECT_EQ(std::string(line),
            std::to_string(events[0].timestamp) + ",0,tx-begin,none,0,-1\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Backoff TTAS
// ---------------------------------------------------------------------------

TEST(BackoffLock, MutualExclusion) {
  locks::BackoffTtasLock lock;
  tsx::Shared<std::uint64_t> counter(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  constexpr int kThreads = 6, kIters = 150;
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
  EXPECT_EQ(counter.unsafe_get(), kThreads * kIters);
}

TEST(BackoffLock, ElidesAndRecovers) {
  locks::BackoffTtasLock lock;
  tsx::Shared<std::uint64_t> hot(0);
  std::uint64_t nonspec = 0, ops = 0;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 8; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 100; ++k) {
        const auto r = locks::hle_region(ctx, lock, [&] {
          hot.store(ctx, hot.load(ctx) + 1);
        });
        ++ops;
        if (!r.speculative) ++nonspec;
      }
    });
  }
  sched.run();
  EXPECT_EQ(hot.unsafe_get(), 800u);
  // Backoff mitigates the avalanche: the lock keeps recovering speculation.
  EXPECT_LT(static_cast<double>(nonspec) / static_cast<double>(ops), 0.9);
}

}  // namespace
}  // namespace elision

// Two-mode lock family tests: reader-writer mutual exclusion, reader
// concurrency, writer preference, elided-reader fast paths through
// CriticalSection::run_shared, abort rollback of a shared acquisition, and the
// reader-avalanche telemetry attribution the writer-heavy bench points rely
// on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "locks/shared_mcs_lock.hpp"
#include "locks/shared_ttas_lock.hpp"
#include "locks/shared_word.hpp"
#include "tsx/telemetry.hpp"

namespace elision::locks {
namespace {

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

static_assert(detail::kHasSharedMode<SharedTtasLock>);
static_assert(detail::kHasSharedMode<SharedMcsLock>);
static_assert(!detail::kHasSharedMode<TtasLock>);
static_assert(!detail::kHasSharedMode<McsLock>);

// ---------------------------------------------------------------------------
// Typed over both family members
// ---------------------------------------------------------------------------

template <typename Lock>
class SharedLockTest : public ::testing::Test {};

using BothSharedLocks = ::testing::Types<SharedTtasLock, SharedMcsLock>;
TYPED_TEST_SUITE(SharedLockTest, BothSharedLocks);

TYPED_TEST(SharedLockTest, WriterMutualExclusion) {
  TypeParam lock;
  tsx::Shared<std::uint64_t> counter(0);
  tsx::Shared<std::uint64_t> in_cs(0);
  bool violation = false;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  constexpr int kThreads = 6, kIters = 120;
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

TYPED_TEST(SharedLockTest, ReadersRunConcurrently) {
  // Standard-mode readers must be able to hold the lock simultaneously.
  TypeParam lock;
  int active = 0, high_water = 0;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 6; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      lock.lock_shared(ctx);
      ++active;
      // Dwell so the others arrive while we hold it.
      ctx.engine().compute(ctx, 5000);
      high_water = std::max(high_water, active);
      --active;
      lock.unlock_shared(ctx);
    });
  }
  sched.run();
  EXPECT_GE(high_water, 2);
}

TYPED_TEST(SharedLockTest, ReadersAndWriterNeverOverlap) {
  TypeParam lock;
  int readers_in = 0;
  int writers_in = 0;
  bool violation = false;
  tsx::Shared<std::uint64_t> data(0);
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  constexpr int kIters = 80;
  for (int t = 0; t < 6; ++t) {
    const bool writer = t < 2;
    sched.spawn([&, writer](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < kIters; ++k) {
        if (writer) {
          lock.lock(ctx);
          if (readers_in != 0 || writers_in != 0) violation = true;
          ++writers_in;
          data.store(ctx, data.load(ctx) + 1);
          ctx.engine().compute(ctx, 30);
          --writers_in;
          lock.unlock(ctx);
        } else {
          lock.lock_shared(ctx);
          if (writers_in != 0) violation = true;
          ++readers_in;
          data.load(ctx);
          ctx.engine().compute(ctx, 30);
          --readers_in;
          lock.unlock_shared(ctx);
        }
      }
    });
  }
  sched.run();
  EXPECT_FALSE(violation);
  EXPECT_EQ(data.unsafe_get(), 2u * kIters);
}

TYPED_TEST(SharedLockTest, SharedReleaseLeavesWordFree) {
  TypeParam lock;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    EXPECT_FALSE(lock.is_held(ctx));
    lock.lock_shared(ctx);
    EXPECT_TRUE(lock.is_held(ctx));
    EXPECT_FALSE(lock.is_write_locked(ctx));  // readers don't block readers
    lock.unlock_shared(ctx);
    EXPECT_FALSE(lock.is_held(ctx));
    lock.lock(ctx);
    EXPECT_TRUE(lock.is_write_locked(ctx));
    lock.unlock(ctx);
    EXPECT_FALSE(lock.is_held(ctx));
  });
  sched.run();
}

TYPED_TEST(SharedLockTest, SharedAcquireRollsBackWithAbortedTransaction) {
  // An aborted transaction rolls the buffered reader increment back with
  // it: nothing is left to release, and the lock works both ways after.
  TypeParam lock;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    const unsigned status = ctx.engine().run_transaction(ctx, [&] {
      lock.lock_shared(ctx);
      ctx.engine().xabort(ctx, 7);
    });
    EXPECT_EQ(status, tsx::status::with_code(
                          tsx::status::kExplicit | tsx::status::kRetry, 7));
    EXPECT_FALSE(lock.is_held(ctx));
    // The lock must still work both ways afterwards.
    lock.lock(ctx);
    lock.unlock(ctx);
    lock.lock_shared(ctx);
    lock.unlock_shared(ctx);
    EXPECT_FALSE(lock.is_held(ctx));
  });
  sched.run();
}

TYPED_TEST(SharedLockTest, RunSharedElidesUncontendedReaders) {
  // run_shared under an elision policy: uncontended readers complete
  // speculatively and the word never sees a real reader count.
  TypeParam lock;
  CriticalSection<TypeParam> cs(ElisionPolicy::hle().shared(), lock);
  tsx::Shared<std::uint64_t> data(42);
  int nonspec = 0;
  std::uint64_t sum = 0;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 6; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 50; ++k) {
        const auto r = cs.run(ctx, [&] { sum += data.load(ctx); });
        if (!r.speculative) ++nonspec;
      }
    });
  }
  sched.run();
  EXPECT_EQ(nonspec, 0);
  EXPECT_EQ(sum, 42u * 6u * 50u);
  EXPECT_EQ(ElisionPolicy::hle().shared().mode, AccessMode::kShared);
}

TYPED_TEST(SharedLockTest, SharedFallbackReadersStillRunConcurrently) {
  // Under the standard scheme run_shared takes real reader counts — and
  // those must coexist, unlike exclusive fallbacks.
  TypeParam lock;
  CriticalSection<TypeParam> cs(ElisionPolicy::standard().shared(), lock);
  int active = 0, high_water = 0;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 6; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      cs.run(ctx, [&] {
        ++active;
        ctx.engine().compute(ctx, 5000);
        high_water = std::max(high_water, active);
        --active;
      });
    });
  }
  sched.run();
  EXPECT_GE(high_water, 2);
}

TYPED_TEST(SharedLockTest, MixedSharedAndExclusiveKeepInvariant) {
  // Writers keep two words equal under run_exclusive; shared-mode readers
  // must never observe them apart, across all speculation outcomes.
  TypeParam lock;
  CriticalSection<TypeParam> cs(ElisionPolicy::hle(), lock);
  tsx::Shared<std::uint64_t> a(0), b(0);
  bool torn = false;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  for (int t = 0; t < 6; ++t) {
    const bool writer = t % 3 == 0;
    sched.spawn([&, writer](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 60; ++k) {
        if (writer) {
          cs.run_exclusive(ctx, [&] {
            a.store(ctx, a.load(ctx) + 1);
            ctx.engine().compute(ctx, 40);
            b.store(ctx, b.load(ctx) + 1);
          });
        } else {
          cs.run_shared(ctx, [&] {
            const auto va = a.load(ctx);
            ctx.engine().compute(ctx, 40);
            if (va != b.load(ctx)) torn = true;
          });
        }
      }
    });
  }
  sched.run();
  EXPECT_FALSE(torn);
  EXPECT_EQ(a.unsafe_get(), b.unsafe_get());
  EXPECT_EQ(a.unsafe_get(), 2u * 60u);
}

TYPED_TEST(SharedLockTest, WriterPreferenceBlocksNewReaders) {
  // Reader 0 holds the lock; a writer announces intent; reader 2 arriving
  // later must wait for the writer (no reader barging past pending).
  TypeParam lock;
  std::vector<int> order;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {  // first reader
    auto& ctx = eng.context(st);
    lock.lock_shared(ctx);
    order.push_back(0);
    ctx.engine().compute(ctx, 50000);
    lock.unlock_shared(ctx);
  });
  sched.spawn([&](sim::SimThread& st) {  // writer, arrives second
    auto& ctx = eng.context(st);
    ctx.engine().compute(ctx, 1000);
    lock.lock(ctx);
    order.push_back(1);
    lock.unlock(ctx);
  });
  sched.spawn([&](sim::SimThread& st) {  // late reader
    auto& ctx = eng.context(st);
    ctx.engine().compute(ctx, 2000);
    lock.lock_shared(ctx);
    order.push_back(2);
    lock.unlock_shared(ctx);
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Reader avalanche: a real writer acquisition aborts the whole elided
// reader crowd, and telemetry attributes the aborts to the writer.
// ---------------------------------------------------------------------------

TYPED_TEST(SharedLockTest, WriterAcquisitionAbortsEntireElidedReaderCrowd) {
  TypeParam lock;
  CriticalSection<TypeParam> readers_cs(ElisionPolicy::hle().shared(), lock);
  CriticalSection<TypeParam> writer_cs(ElisionPolicy::standard(), lock);
  tsx::Shared<std::uint64_t> data(0);
  tsx::Telemetry telemetry;
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  eng.set_telemetry(&telemetry);
  // Thread 0 is the writer; it joins after the readers are circulating.
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    for (int k = 0; k < 25; ++k) {
      ctx.engine().compute(ctx, 3000);
      writer_cs.run(ctx, [&] { data.store(ctx, data.load(ctx) + 1); });
    }
  });
  // Reader regions whose last failed attempt was a conflict abort by the
  // writer (thread 0), read off the abort feedback every build carries.
  int reader_regions_aborted_by_writer = 0;
  for (int t = 1; t < 7; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      for (int k = 0; k < 200; ++k) {
        const RegionResult r = readers_cs.run(ctx, [&] {
          data.load(ctx);
          ctx.engine().compute(ctx, 200);
        });
        if (r.last_abort == tsx::AbortCause::kConflict &&
            ctx.last_conflict_thread() == 0) {
          ++reader_regions_aborted_by_writer;
        }
      }
    });
  }
  sched.run();
  EXPECT_EQ(data.unsafe_get(), 25u);
  EXPECT_GT(reader_regions_aborted_by_writer, 0);
  if constexpr (tsx::kTelemetryCompiled) {
    // The event ring attributes the same aborts to the writer: at least one
    // kTxAbort per such region (earlier failed attempts may add more).
    int reader_aborts_by_writer = 0;
    for (const auto& e : telemetry.merged()) {
      if (e.kind == tsx::EventKind::kTxAbort && e.thread != 0 &&
          e.other_thread == 0) {
        ++reader_aborts_by_writer;
      }
    }
    EXPECT_GE(reader_aborts_by_writer, reader_regions_aborted_by_writer);
  }
}

}  // namespace
}  // namespace elision::locks

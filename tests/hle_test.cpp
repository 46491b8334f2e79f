// Tests of the HLE interface (XACQUIRE/XRELEASE), the elision region
// driver, and the avalanche mechanics of Ch. 3.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "locks/mcs_lock.hpp"
#include "locks/region.hpp"
#include "locks/ttas_lock.hpp"
#include "tsx/shared.hpp"

namespace elision::tsx {
namespace {

sim::MachineConfig quiet_machine() {
  sim::MachineConfig m;
  m.n_cores = 8;
  m.smt_per_core = 1;
  return m;
}

TsxConfig quiet_tsx() {
  TsxConfig t;
  t.spurious_per_begin = 0;
  t.spurious_per_access = 0;
  return t;
}

void run_threads(std::vector<std::function<void(Ctx&)>> bodies,
                 TsxConfig tcfg = quiet_tsx()) {
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, tcfg);
  for (auto& body : bodies) {
    sched.spawn([&eng, body = std::move(body)](sim::SimThread& st) {
      body(eng.context(st));
    });
  }
  sched.run();
}

// ---------------------------------------------------------------------------
// XACQUIRE / XRELEASE primitives
// ---------------------------------------------------------------------------

TEST(Hle, ElisionGivesIllusionWithoutWriting) {
  Shared<std::uint64_t> lock(0);
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kSpeculative);
    const std::uint64_t old = lock.xacquire_exchange(ctx, 1);
    EXPECT_EQ(old, 0u);
    EXPECT_TRUE(ctx.engine().xtest(ctx));
    // The thread sees the lock as held...
    EXPECT_EQ(lock.load(ctx), 1u);
    // ...but memory was never written.
    EXPECT_EQ(lock.unsafe_get(), 0u);
    lock.xrelease_store(ctx, 0);  // restores original: commits
    EXPECT_FALSE(ctx.engine().xtest(ctx));
    ctx.set_mode(ElisionMode::kStandard);
  }});
  EXPECT_EQ(lock.unsafe_get(), 0u);
}

TEST(Hle, ReleaseMustRestoreOriginalValue) {
  Shared<std::uint64_t> lock(0);
  TxStats stats;
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    ctx.set_mode(ElisionMode::kSpeculative);
    const unsigned status = eng.attempt(ctx, [&] {
      lock.xacquire_exchange(ctx, 1);
      lock.xrelease_store(ctx, 2);  // wrong value: must abort
    });
    // Like Haswell, an HLE-elision violation carries no status bits.
    EXPECT_EQ(status, 0u);
    EXPECT_EQ(ctx.last_abort_cause(), AbortCause::kHleMismatch);
    ctx.set_mode(ElisionMode::kStandard);
  });
  sched.run();
  EXPECT_EQ(
      eng.total_stats()
          .aborts_by_cause[static_cast<int>(AbortCause::kHleMismatch)],
      1u);
}

TEST(Hle, ReleaseToDifferentAddressAborts) {
  Shared<std::uint64_t> lock(0), other(0);
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kSpeculative);
    const unsigned st = ctx.engine().attempt(ctx, [&] {
      lock.xacquire_exchange(ctx, 1);
      other.xrelease_store(ctx, 0);  // not the elided address
    });
    EXPECT_EQ(st, 0u);
    EXPECT_EQ(ctx.last_abort_cause(), AbortCause::kHleMismatch);
    ctx.set_mode(ElisionMode::kStandard);
  }});
}

TEST(Hle, ElidedFetchAddAndCasRelease) {
  // The adjusted ticket lock pattern: XACQUIRE F&A then XRELEASE CAS that
  // undoes it (Algorithm 5).
  Shared<std::uint64_t> next(7);
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kSpeculative);
    const std::uint64_t current = next.xacquire_fetch_add(ctx, 1);
    EXPECT_EQ(current, 7u);
    EXPECT_EQ(next.load(ctx), 8u);  // illusion
    EXPECT_TRUE(next.xrelease_compare_exchange(ctx, current + 1, current));
    EXPECT_FALSE(ctx.engine().xtest(ctx));
    ctx.set_mode(ElisionMode::kStandard);
  }});
  EXPECT_EQ(next.unsafe_get(), 7u);  // state fully restored
}

TEST(Hle, ElidedCasReleaseFailsOnWrongExpected) {
  Shared<std::uint64_t> word(7);
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kSpeculative);
    word.xacquire_fetch_add(ctx, 1);
    // Expected doesn't match the illusion: the CAS fails, no abort.
    EXPECT_FALSE(word.xrelease_compare_exchange(ctx, 99, 7));
    EXPECT_TRUE(ctx.engine().xtest(ctx));
    // Correct release afterwards.
    EXPECT_TRUE(word.xrelease_compare_exchange(ctx, 8, 7));
    ctx.set_mode(ElisionMode::kStandard);
  }});
}

TEST(Hle, StandardModeExecutesRmwForReal) {
  Shared<std::uint64_t> lock(0);
  run_threads({[&](Ctx& ctx) {
    ctx.set_mode(ElisionMode::kStandard);
    EXPECT_EQ(lock.xacquire_exchange(ctx, 1), 0u);
    EXPECT_EQ(lock.unsafe_get(), 1u);  // memory actually written
    lock.xrelease_store(ctx, 0);
  }});
  EXPECT_EQ(lock.unsafe_get(), 0u);
}

TEST(Hle, HleInsideRtmAbortsOnHaswell) {
  Shared<std::uint64_t> lock(0);
  TsxConfig cfg = quiet_tsx();
  cfg.allow_hle_in_rtm = false;  // Haswell behaviour (Ch. 4 Remark)
  unsigned st = kCommitted;
  run_threads(
      {[&](Ctx& ctx) {
        st = ctx.engine().run_transaction(ctx, [&] {
          ctx.set_mode(ElisionMode::kSpeculative);
          lock.xacquire_exchange(ctx, 1);
        });
        ctx.set_mode(ElisionMode::kStandard);
      }},
      cfg);
  EXPECT_NE(st, kCommitted);
}

TEST(Hle, HleInsideRtmWorksWhenAllowed) {
  Shared<std::uint64_t> lock(0);
  Shared<std::uint64_t> data(0);
  TsxConfig cfg = quiet_tsx();
  cfg.allow_hle_in_rtm = true;  // the paper's intended SCM design
  unsigned st = 0;
  run_threads(
      {[&](Ctx& ctx) {
        st = ctx.engine().run_transaction(ctx, [&] {
          ctx.set_mode(ElisionMode::kSpeculative);
          lock.xacquire_exchange(ctx, 1);
          EXPECT_EQ(lock.load(ctx), 1u);  // illusion inside the RTM tx
          data.store(ctx, 42);
          lock.xrelease_store(ctx, 0);
          // Still inside the outer RTM transaction after the release.
          EXPECT_TRUE(ctx.engine().xtest(ctx));
        });
        ctx.set_mode(ElisionMode::kStandard);
      }},
      cfg);
  EXPECT_EQ(st, kCommitted);
  EXPECT_EQ(data.unsafe_get(), 42u);
  EXPECT_EQ(lock.unsafe_get(), 0u);
}

// ---------------------------------------------------------------------------
// The HLE region driver
// ---------------------------------------------------------------------------

TEST(HleRegion, UncontendedRegionCommitsSpeculatively) {
  locks::TtasLock lock;
  Shared<std::uint64_t> data(0);
  run_threads({[&](Ctx& ctx) {
    const auto r = locks::hle_region(ctx, lock, [&] {
      data.store(ctx, data.load(ctx) + 1);
    });
    EXPECT_TRUE(r.speculative);
    EXPECT_EQ(r.attempts, 1);
  }});
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(HleRegion, ConcurrentDisjointRegionsAllSpeculative) {
  locks::TtasLock lock;
  std::vector<support::CacheAligned<Shared<std::uint64_t>>> slots(8);
  std::vector<std::function<void(Ctx&)>> bodies;
  int nonspec = 0;
  for (int i = 0; i < 8; ++i) {
    bodies.push_back([&, i](Ctx& ctx) {
      for (int k = 0; k < 50; ++k) {
        const auto r = locks::hle_region(ctx, lock, [&] {
          slots[i].value.store(ctx, slots[i].value.load(ctx) + 1);
        });
        if (!r.speculative) ++nonspec;
      }
    });
  }
  run_threads(std::move(bodies));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(slots[i].value.unsafe_get(), 50u);
  EXPECT_EQ(nonspec, 0);  // nothing conflicts: full elision
}

TEST(HleRegion, AbortFallsBackToStandardRun) {
  locks::TtasLock lock;
  Shared<std::uint64_t> data(0);
  TsxConfig cfg = quiet_tsx();
  cfg.spurious_per_begin = 1.0;  // every speculative attempt dies instantly
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, cfg);
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    const auto r = locks::hle_region(ctx, lock, [&] {
      data.store(ctx, data.load(ctx) + 1);
    });
    EXPECT_FALSE(r.speculative);
    EXPECT_EQ(r.attempts, 2);  // one aborted speculation + one standard run
  });
  sched.run();
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(HleRegion, AvalancheOneAcquisitionAbortsAllSpeculators) {
  // Three speculating threads, entirely disjoint data, plus one thread that
  // acquires the lock non-transactionally mid-window. Even though no data
  // conflicts exist, the acquisition invalidates the lock line in every
  // speculator's read set, aborting all of them (the avalanche of Ch. 3).
  locks::TtasLock lock;
  Shared<std::uint64_t> hot(0);
  std::vector<support::CacheAligned<Shared<std::uint64_t>>> cold(3);
  std::vector<locks::RegionResult> results(3);
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, quiet_tsx());
  for (int i = 0; i < 3; ++i) {
    sched.spawn([&, i](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      results[i] = locks::hle_region(ctx, lock, [&] {
        (void)cold[i].value.load(ctx);
        ctx.engine().compute(ctx, 3000);  // long speculative window
        cold[i].value.store(ctx, 1);
      });
    });
  }
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    ctx.engine().compute(ctx, 500);  // land inside the speculative windows
    ctx.set_mode(ElisionMode::kStandard);
    lock.lock(ctx);
    hot.store(ctx, 1);
    lock.unlock(ctx);
  });
  sched.run();
  // Every speculator was aborted despite touching disjoint data...
  const auto stats = eng.total_stats();
  EXPECT_EQ(stats.aborts_by_cause[static_cast<int>(AbortCause::kConflict)],
            3u);
  // ...and every operation still completed (speculatively after recovery or
  // non-speculatively), with more than one attempt.
  for (const auto& r : results) {
    EXPECT_GE(r.attempts, 2);
  }
  for (int i = 0; i < 3; ++i) EXPECT_EQ(cold[i].value.unsafe_get(), 1u);
}

TEST(HleRegion, TtasReentersSpeculationAfterLockRelease) {
  // A speculator aborted by a lock acquisition re-issues its TAS (which
  // fails), spins, and re-enters speculation once the lock is free — the
  // TTAS recovery of Ch. 3. With a long-held lock, the speculator should
  // still complete speculatively after release.
  locks::TtasLock lock;
  Shared<std::uint64_t> a(0), b(0);
  locks::RegionResult r{};
  run_threads({
      [&](Ctx& ctx) {
        // Holder: grabs the lock for real for a long time.
        ctx.set_mode(ElisionMode::kStandard);
        lock.lock(ctx);
        a.store(ctx, 1);
        ctx.engine().compute(ctx, 20000);
        lock.unlock(ctx);
      },
      [&](Ctx& ctx) {
        ctx.engine().compute(ctx, 1000);  // arrive while the lock is held
        r = locks::hle_region(ctx, lock, [&] {
          b.store(ctx, b.load(ctx) + 1);
        });
      },
  });
  EXPECT_TRUE(r.speculative);
  EXPECT_EQ(b.unsafe_get(), 1u);
}

TEST(HleRegion, RtmElideRegionEquivalentSemantics) {
  locks::TtasLock lock;
  Shared<std::uint64_t> data(0);
  run_threads({[&](Ctx& ctx) {
    const auto r = locks::rtm_elide_region(ctx, lock, [&] {
      data.store(ctx, data.load(ctx) + 1);
    });
    EXPECT_TRUE(r.speculative);
  }});
  EXPECT_EQ(data.unsafe_get(), 1u);
}

TEST(HleRegion, RtmElideAbortsWhenLockHeld) {
  locks::TtasLock lock;
  Shared<std::uint64_t> data(0);
  locks::RegionResult r{};
  run_threads({
      [&](Ctx& ctx) {
        ctx.set_mode(ElisionMode::kStandard);
        lock.lock(ctx);
        ctx.engine().compute(ctx, 5000);
        lock.unlock(ctx);
      },
      [&](Ctx& ctx) {
        ctx.engine().compute(ctx, 500);
        r = locks::rtm_elide_region(ctx, lock, [&] {
          data.store(ctx, data.load(ctx) + 1);
        });
      },
  });
  // The second thread observed the held lock, aborted, and either retried
  // speculatively after release or serialized; either way it completed.
  EXPECT_EQ(data.unsafe_get(), 1u);
  EXPECT_GE(r.attempts, 1);
}

}  // namespace
}  // namespace elision::tsx

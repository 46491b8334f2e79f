#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "tsx/shared.hpp"

namespace elision::tsx {
namespace {

// Deterministic machine: no SMT variation, no spurious aborts.
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

// Runs each body on its own simulated thread.
void run_threads(std::vector<std::function<void(Ctx&)>> bodies,
                 TsxConfig tcfg = quiet_tsx()) {
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, tcfg);
  for (auto& body : bodies) {
    sched.spawn([&eng, body = std::move(body)](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      body(ctx);
    });
  }
  sched.run();
}

// Like run_threads but also exposes the engine for stats inspection.
void run_threads_with_engine(
    std::vector<std::function<void(Ctx&)>> bodies, TxStats* stats_out,
    TsxConfig tcfg = quiet_tsx()) {
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, tcfg);
  for (auto& body : bodies) {
    sched.spawn([&eng, body = std::move(body)](sim::SimThread& st) {
      body(eng.context(st));
    });
  }
  sched.run();
  *stats_out = eng.total_stats();
}

// ---------------------------------------------------------------------------
// Basic transactional semantics
// ---------------------------------------------------------------------------

TEST(Engine, CommittedTransactionPublishes) {
  Shared<std::uint64_t> x(1);
  run_threads({[&](Ctx& ctx) {
    const unsigned st = ctx.engine().run_transaction(ctx, [&] {
      x.store(ctx, x.load(ctx) + 41);
    });
    EXPECT_EQ(st, kCommitted);
  }});
  EXPECT_EQ(x.unsafe_get(), 42u);
}

TEST(Engine, ExplicitAbortRollsBack) {
  Shared<std::uint64_t> x(5);
  run_threads({[&](Ctx& ctx) {
    const unsigned st = ctx.engine().run_transaction(ctx, [&] {
      x.store(ctx, 99);
      ctx.engine().xabort(ctx, 0x7);
    });
    EXPECT_NE(st, kCommitted);
    EXPECT_TRUE(st & status::kExplicit);
    EXPECT_EQ(status::code_of(st), 0x7);
  }});
  EXPECT_EQ(x.unsafe_get(), 5u);  // the buffered store was discarded
}

TEST(Engine, ReadOwnWrites) {
  Shared<std::uint64_t> x(0);
  run_threads({[&](Ctx& ctx) {
    ctx.engine().run_transaction(ctx, [&] {
      x.store(ctx, 10);
      EXPECT_EQ(x.load(ctx), 10u);
      x.store(ctx, 20);
      EXPECT_EQ(x.load(ctx), 20u);
    });
  }});
  EXPECT_EQ(x.unsafe_get(), 20u);
}

TEST(Engine, WritesInvisibleUntilCommit) {
  Shared<std::uint64_t> x(0);
  Shared<std::uint64_t> observed(1234);
  run_threads({
      [&](Ctx& ctx) {
        ctx.engine().run_transaction(ctx, [&] {
          x.store(ctx, 7);
          // Park transactionally so the reader samples mid-transaction.
          ctx.engine().compute(ctx, 500);
          x.load(ctx);
        });
      },
      [&](Ctx& ctx) {
        ctx.engine().compute(ctx, 100);  // land inside the writer's tx
        observed.store(ctx, x.load(ctx));
      },
  });
  // The reader either saw the pre-state (0) — and in doing so aborted the
  // writer (requestor wins) — or ran after a commit (7). Never a torn or
  // buffered value.
  const std::uint64_t v = observed.unsafe_get();
  EXPECT_TRUE(v == 0 || v == 7) << v;
}

TEST(Engine, XTestReportsTransactionState) {
  run_threads({[&](Ctx& ctx) {
    EXPECT_FALSE(ctx.engine().xtest(ctx));
    ctx.engine().run_transaction(ctx, [&] {
      EXPECT_TRUE(ctx.engine().xtest(ctx));
    });
    EXPECT_FALSE(ctx.engine().xtest(ctx));
  }});
}

TEST(Engine, FlatNestingCommitsAtOuter) {
  Shared<std::uint64_t> x(0);
  run_threads({[&](Ctx& ctx) {
    auto& eng = ctx.engine();
    const unsigned st = eng.run_transaction(ctx, [&] {
      x.store(ctx, 1);
      const unsigned inner = eng.run_transaction(ctx, [&] {
        x.store(ctx, 2);
      });
      EXPECT_EQ(inner, kCommitted);
      // Inner "commit" must not have published anything yet: we are still
      // speculative, so memory still holds 0.
      EXPECT_TRUE(eng.xtest(ctx));
      EXPECT_EQ(x.unsafe_get(), 0u);
    });
    EXPECT_EQ(st, kCommitted);
  }});
  EXPECT_EQ(x.unsafe_get(), 2u);
}

TEST(Engine, NestedAbortResumesAtOuter) {
  Shared<std::uint64_t> x(0);
  run_threads({[&](Ctx& ctx) {
    auto& eng = ctx.engine();
    bool after_inner = false;
    const unsigned st = eng.run_transaction(ctx, [&] {
      x.store(ctx, 1);
      // Flat nesting pushes no checkpoint: the abort restores the outer one.
      eng.run_transaction(ctx, [&] { eng.xabort(ctx, 3); });
      after_inner = true;  // must never execute: flat nesting
    });
    EXPECT_EQ(st, status::with_code(status::kExplicit | status::kRetry |
                                        status::kNested,
                                    3));
    EXPECT_FALSE(after_inner);
    EXPECT_FALSE(eng.xtest(ctx));
    EXPECT_FALSE(ctx.has_checkpoint());
  }});
  EXPECT_EQ(x.unsafe_get(), 0u);
}

// ---------------------------------------------------------------------------
// XBEGIN checkpoints (Engine::attempt): where an abort resumes
// ---------------------------------------------------------------------------

TEST(Checkpoint, InnermostLiveCheckpointWins) {
  Shared<std::uint64_t> x(0);
  run_threads({[&](Ctx& ctx) {
    auto& eng = ctx.engine();
    unsigned inner = kCommitted;
    bool resumed_in_outer = false;
    const unsigned outer = eng.attempt(ctx, [&] {
      inner = eng.run_transaction(ctx, [&] {
        x.store(ctx, 1);
        eng.xabort(ctx, 5);
      });
      // The restore popped only the inner checkpoint.
      resumed_in_outer = true;
      EXPECT_TRUE(ctx.has_checkpoint());
    });
    EXPECT_EQ(inner, status::with_code(status::kExplicit | status::kRetry, 5));
    EXPECT_TRUE(resumed_in_outer);
    EXPECT_EQ(outer, kCommitted);
    EXPECT_FALSE(ctx.has_checkpoint());
  }});
  EXPECT_EQ(x.unsafe_get(), 0u);
}

TEST(Checkpoint, ChainIsEmptyAfterCommitAndAbort) {
  Shared<std::uint64_t> lock(0);
  run_threads({[&](Ctx& ctx) {
    auto& eng = ctx.engine();
    EXPECT_FALSE(ctx.has_checkpoint());
    EXPECT_EQ(eng.run_transaction(
                  ctx, [&] { EXPECT_TRUE(ctx.has_checkpoint()); }),
              kCommitted);
    EXPECT_FALSE(ctx.has_checkpoint());
    // Many aborts in a row: each restore pops exactly its own checkpoint.
    for (int i = 0; i < 100; ++i) {
      EXPECT_NE(eng.run_transaction(ctx, [&] { eng.xabort(ctx, 1); }),
                kCommitted);
      EXPECT_FALSE(ctx.has_checkpoint());
    }
    // An HLE transaction begun inside a bare attempt, both ways.
    ctx.set_mode(ElisionMode::kSpeculative);
    EXPECT_EQ(eng.attempt(ctx, [&] {
                lock.xacquire_exchange(ctx, 1);
                lock.xrelease_store(ctx, 0);
              }),
              kCommitted);
    EXPECT_FALSE(ctx.has_checkpoint());
    EXPECT_NE(eng.attempt(ctx, [&] {
                lock.xacquire_exchange(ctx, 1);
                eng.pause(ctx);
              }),
              kCommitted);
    EXPECT_EQ(ctx.last_abort_cause(), AbortCause::kPause);
    EXPECT_FALSE(ctx.has_checkpoint());
    ctx.set_mode(ElisionMode::kStandard);
  }});
  EXPECT_EQ(lock.unsafe_get(), 0u);
}

TEST(CheckpointDeathTest, AbortWithoutCheckpointDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Shared<std::uint64_t> lock(0);
        run_threads({[&](Ctx& ctx) {
          // An XACQUIRE begins a transaction with no attempt around it.
          ctx.set_mode(ElisionMode::kSpeculative);
          lock.xacquire_exchange(ctx, 1);
          ctx.engine().xabort(ctx, 1);
        }});
      },
      "aborted outside any Engine::attempt");
}

TEST(Engine, PauseAbortsTransaction) {
  TxStats stats;
  run_threads_with_engine(
      {[&](Ctx& ctx) {
        const unsigned st = ctx.engine().run_transaction(ctx, [&] {
          ctx.engine().pause(ctx);
          ADD_FAILURE() << "unreachable: PAUSE must abort";
        });
        EXPECT_NE(st, kCommitted);
      }},
      &stats);
  EXPECT_EQ(stats.aborts_by_cause[static_cast<int>(AbortCause::kPause)], 1u);
}

TEST(Engine, PauseOutsideTransactionJustCosts) {
  run_threads({[&](Ctx& ctx) {
    const auto before = ctx.thread().now();
    ctx.engine().pause(ctx);
    EXPECT_GT(ctx.thread().now(), before);
  }});
}

// ---------------------------------------------------------------------------
// Requestor-wins conflict management
// ---------------------------------------------------------------------------

TEST(Engine, DirectWriteAbortsTransactionalReader) {
  Shared<std::uint64_t> x(0);
  unsigned reader_status = kCommitted;
  run_threads({
      [&](Ctx& ctx) {
        reader_status = ctx.engine().run_transaction(ctx, [&] {
          (void)x.load(ctx);
          ctx.engine().compute(ctx, 1000);  // give the writer time
          (void)x.load(ctx);                // must observe the abort
          ctx.engine().compute(ctx, 1000);
        });
      },
      [&](Ctx& ctx) {
        ctx.engine().compute(ctx, 200);
        x.store(ctx, 1);  // direct write into the reader's read set
      },
  });
  EXPECT_NE(reader_status, kCommitted);
  EXPECT_TRUE(reader_status & status::kConflict);
}

TEST(Engine, DirectReadAbortsTransactionalWriter) {
  Shared<std::uint64_t> x(0);
  unsigned writer_status = kCommitted;
  std::uint64_t seen = 1234;
  run_threads({
      [&](Ctx& ctx) {
        writer_status = ctx.engine().run_transaction(ctx, [&] {
          x.store(ctx, 9);
          ctx.engine().compute(ctx, 1000);
          (void)x.load(ctx);
        });
      },
      [&](Ctx& ctx) {
        ctx.engine().compute(ctx, 200);
        seen = x.load(ctx);  // plain read of a line in the writer's wset
      },
  });
  EXPECT_NE(writer_status, kCommitted);
  EXPECT_EQ(seen, 0u);  // pre-transactional memory, never the buffered 9
  EXPECT_EQ(x.unsafe_get(), 0u);
}

TEST(Engine, TransactionalWriteAbortsOtherReaders) {
  Shared<std::uint64_t> x(0);
  unsigned reader_status = kCommitted;
  unsigned writer_status = 0;
  run_threads({
      [&](Ctx& ctx) {
        reader_status = ctx.engine().run_transaction(ctx, [&] {
          (void)x.load(ctx);
          ctx.engine().compute(ctx, 1000);
          (void)x.load(ctx);
        });
      },
      [&](Ctx& ctx) {
        ctx.engine().compute(ctx, 100);
        writer_status = ctx.engine().run_transaction(ctx, [&] {
          x.store(ctx, 5);
        });
      },
  });
  EXPECT_EQ(writer_status, kCommitted);  // the requestor proceeds
  EXPECT_NE(reader_status, kCommitted);  // the reader is the victim
  EXPECT_EQ(x.unsafe_get(), 5u);
}

TEST(Engine, TransactionalReadAbortsOtherWriter) {
  Shared<std::uint64_t> x(0);
  unsigned writer_status = kCommitted;
  unsigned reader_status = 0;
  std::uint64_t seen = 1234;
  run_threads({
      [&](Ctx& ctx) {
        writer_status = ctx.engine().run_transaction(ctx, [&] {
          x.store(ctx, 5);
          ctx.engine().compute(ctx, 1000);
          (void)x.load(ctx);
        });
      },
      [&](Ctx& ctx) {
        ctx.engine().compute(ctx, 100);
        reader_status = ctx.engine().run_transaction(ctx, [&] {
          seen = x.load(ctx);
        });
      },
  });
  EXPECT_EQ(reader_status, kCommitted);
  EXPECT_NE(writer_status, kCommitted);
  EXPECT_EQ(seen, 0u);
}

TEST(Engine, ReadersDoNotConflictWithReaders) {
  Shared<std::uint64_t> x(3);
  std::vector<std::function<void(Ctx&)>> bodies;
  std::vector<unsigned> statuses(6, 1);
  for (int i = 0; i < 6; ++i) {
    bodies.push_back([&, i](Ctx& ctx) {
      statuses[i] = ctx.engine().run_transaction(ctx, [&] {
        for (int k = 0; k < 20; ++k) EXPECT_EQ(x.load(ctx), 3u);
      });
    });
  }
  run_threads(std::move(bodies));
  for (const unsigned st : statuses) EXPECT_EQ(st, kCommitted);
}

TEST(Engine, ConcurrentCountersNeverLoseUpdates) {
  // Mixed transactional and direct increments under heavy interleaving must
  // sum exactly.
  Shared<std::uint64_t> counter(0);
  std::vector<std::function<void(Ctx&)>> bodies;
  constexpr int kThreads = 6, kIters = 400;
  for (int i = 0; i < kThreads; ++i) {
    bodies.push_back([&](Ctx& ctx) {
      for (int k = 0; k < kIters; ++k) {
        const unsigned st = ctx.engine().run_transaction(ctx, [&] {
          counter.store(ctx, counter.load(ctx) + 1);
        });
        if (st != kCommitted) counter.fetch_add(ctx, 1);
      }
    });
  }
  run_threads(std::move(bodies));
  EXPECT_EQ(counter.unsafe_get(), kThreads * kIters);
}

TEST(Engine, MarkedTransactionAbortsAtNextAccessNotLater) {
  // A zombie transaction must observe its doom at the very next shared
  // access, so it can never act on a mix of pre- and post-conflict values
  // (opacity).
  Shared<std::uint64_t> x(0), y(0);
  bool inconsistency = false;
  run_threads({
      [&](Ctx& ctx) {
        ctx.engine().run_transaction(ctx, [&] {
          const std::uint64_t x0 = x.load(ctx);
          ctx.engine().compute(ctx, 1000);  // writer updates both now
          const std::uint64_t y0 = y.load(ctx);  // must abort here
          if (x0 != y0) inconsistency = true;
        });
      },
      [&](Ctx& ctx) {
        ctx.engine().compute(ctx, 200);
        x.store(ctx, 1);
        y.store(ctx, 1);
      },
  });
  EXPECT_FALSE(inconsistency);
}

// ---------------------------------------------------------------------------
// Capacity model
// ---------------------------------------------------------------------------

TEST(Engine, WriteSetOverflowAborts) {
  // 64 sets x 8 ways = 512 lines = 32 KB. Writing more must abort with
  // CAPACITY and no RETRY bit.
  constexpr std::size_t kLines = 600;
  std::vector<support::CacheAligned<Shared<std::uint64_t>>> data(kLines);
  unsigned st = kCommitted;
  run_threads({[&](Ctx& ctx) {
    st = ctx.engine().run_transaction(ctx, [&] {
      for (auto& d : data) d.value.store(ctx, 1);
    });
  }});
  EXPECT_NE(st, kCommitted);
  EXPECT_TRUE(st & status::kCapacity);
  EXPECT_FALSE(st & status::kRetry);
}

TEST(Engine, WriteSetWithinL1Commits) {
  constexpr std::size_t kLines = 500;  // < 512
  std::vector<support::CacheAligned<Shared<std::uint64_t>>> data(kLines);
  unsigned st = 1;
  run_threads({[&](Ctx& ctx) {
    st = ctx.engine().run_transaction(ctx, [&] {
      for (auto& d : data) d.value.store(ctx, 1);
    });
  }});
  EXPECT_EQ(st, kCommitted);
  for (auto& d : data) EXPECT_EQ(d.value.unsafe_get(), 1u);
}

TEST(Engine, WriteSetAssociativityConflictAborts) {
  // 9 lines mapping to the same L1 set exceed the 8 ways even though the
  // total footprint is tiny.
  std::vector<std::uint8_t> arena(64 * 64 * 10 + 64);
  const auto base = (reinterpret_cast<std::uintptr_t>(arena.data()) + 63) &
                    ~static_cast<std::uintptr_t>(63);
  unsigned st = kCommitted;
  run_threads({[&](Ctx& ctx) {
    st = ctx.engine().run_transaction(ctx, [&] {
      for (int i = 0; i < 9; ++i) {
        auto* p = reinterpret_cast<void*>(base + static_cast<std::uintptr_t>(i) * 64 * 64);
        ctx.engine().store(ctx, p, 1);
      }
    });
  }});
  EXPECT_NE(st, kCommitted);
  EXPECT_TRUE(st & status::kCapacity);
}

TEST(Engine, ReadsSurvivePastL1) {
  // Reads are tracked beyond L1 (Fig 2.1): a 1000-line read-only
  // transaction (~64 KB) must commit when spurious aborts are disabled.
  constexpr std::size_t kLines = 1000;
  std::vector<support::CacheAligned<Shared<std::uint64_t>>> data(kLines);
  TsxConfig cfg = quiet_tsx();
  cfg.read_evict_l2 = 0;
  unsigned st = 1;
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, cfg);
  sched.spawn([&](sim::SimThread& t) {
    auto& ctx = eng.context(t);
    st = eng.run_transaction(ctx, [&] {
      for (auto& d : data) (void)d.value.load(ctx);
    });
  });
  sched.run();
  EXPECT_EQ(st, kCommitted);
}

TEST(Engine, ReadSetHardLimitAborts) {
  TsxConfig cfg = quiet_tsx();
  cfg.l3_lines = 2000;  // shrink the L3 so the test stays fast
  constexpr std::size_t kLines = 2100;
  std::vector<support::CacheAligned<Shared<std::uint64_t>>> data(kLines);
  unsigned st = kCommitted;
  sim::Scheduler sched(quiet_machine());
  Engine eng(sched, cfg);
  sched.spawn([&](sim::SimThread& t) {
    auto& ctx = eng.context(t);
    st = eng.run_transaction(ctx, [&] {
      for (auto& d : data) (void)d.value.load(ctx);
    });
  });
  sched.run();
  EXPECT_NE(st, kCommitted);
  EXPECT_TRUE(st & status::kCapacity);
}

// ---------------------------------------------------------------------------
// Spurious aborts
// ---------------------------------------------------------------------------

TEST(Engine, SpuriousAbortsOccurAtConfiguredRate) {
  TsxConfig cfg = quiet_tsx();
  cfg.spurious_per_begin = 0.2;
  TxStats stats;
  run_threads_with_engine(
      {[&](Ctx& ctx) {
        Shared<std::uint64_t> x(0);
        int commits = 0;
        for (int i = 0; i < 2000; ++i) {
          if (ctx.engine().run_transaction(ctx, [&] {
                x.store(ctx, i);
              }) == kCommitted) {
            ++commits;
          }
        }
        EXPECT_NEAR(commits, 1600, 80);  // ~80% commit rate
      }},
      &stats, cfg);
  EXPECT_NEAR(
      static_cast<double>(
          stats.aborts_by_cause[static_cast<int>(AbortCause::kSpurious)]),
      400.0, 80.0);
}

TEST(Engine, NoSpuriousAbortsWhenDisabled) {
  TxStats stats;
  run_threads_with_engine(
      {[&](Ctx& ctx) {
        Shared<std::uint64_t> x(0);
        for (int i = 0; i < 2000; ++i) {
          EXPECT_EQ(ctx.engine().run_transaction(
                        ctx, [&] { x.store(ctx, i); }),
                    kCommitted);
        }
      }},
      &stats);
  EXPECT_EQ(stats.aborts, 0u);
  EXPECT_EQ(stats.commits, 2000u);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

TEST(Engine, StatsCountBeginsCommitsAborts) {
  TxStats stats;
  run_threads_with_engine(
      {[&](Ctx& ctx) {
        Shared<std::uint64_t> x(0);
        for (int i = 0; i < 10; ++i) {
          ctx.engine().run_transaction(ctx, [&] { x.store(ctx, 1); });
        }
        for (int i = 0; i < 3; ++i) {
          ctx.engine().run_transaction(ctx, [&] {
            ctx.engine().xabort(ctx, 1);
          });
        }
      }},
      &stats);
  EXPECT_EQ(stats.begins, 13u);
  EXPECT_EQ(stats.commits, 10u);
  EXPECT_EQ(stats.aborts, 3u);
  EXPECT_EQ(stats.aborts_by_cause[static_cast<int>(AbortCause::kExplicit)],
            3u);
}

TEST(Engine, RmwOperationsWorkTransactionallyAndDirectly) {
  Shared<std::uint64_t> x(10);
  run_threads({[&](Ctx& ctx) {
    // Direct.
    EXPECT_EQ(x.fetch_add(ctx, 5), 10u);
    EXPECT_EQ(x.exchange(ctx, 100), 15u);
    EXPECT_TRUE(x.compare_exchange(ctx, 100, 200));
    EXPECT_FALSE(x.compare_exchange(ctx, 100, 300));
    // Transactional.
    ctx.engine().run_transaction(ctx, [&] {
      EXPECT_EQ(x.fetch_add(ctx, 1), 200u);
      EXPECT_EQ(x.exchange(ctx, 7), 201u);
      EXPECT_TRUE(x.compare_exchange(ctx, 7, 8));
    });
  }});
  EXPECT_EQ(x.unsafe_get(), 8u);
}

TEST(Engine, SharedSupportsSmallTypes) {
  Shared<int> i(-5);
  Shared<double> d(2.5);
  Shared<void*> p(nullptr);
  run_threads({[&](Ctx& ctx) {
    EXPECT_EQ(i.load(ctx), -5);
    i.store(ctx, 17);
    EXPECT_DOUBLE_EQ(d.load(ctx), 2.5);
    d.store(ctx, -1.25);
    EXPECT_EQ(p.load(ctx), nullptr);
    p.store(ctx, &d);
  }});
  EXPECT_EQ(i.unsafe_get(), 17);
  EXPECT_DOUBLE_EQ(d.unsafe_get(), -1.25);
  EXPECT_EQ(p.unsafe_get(), &d);
}

}  // namespace
}  // namespace elision::tsx

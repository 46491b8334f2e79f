// Regression guards for the paper's headline results: miniature versions of
// the figure experiments with assertions on the *shape* (orderings and
// rough factors). If a simulator or scheme change breaks the reproduction,
// these fail before anyone stares at bench output.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/rb_workload.hpp"
#include "sim/scheduler.hpp"
#include "support/align.hpp"
#include "tsx/shared.hpp"

namespace elision {
namespace {

using harness::LockSel;
using locks::Scheme;

// One tree measurement (default machine/TSX config — spurious aborts on,
// as in the real experiments).
harness::RunStats tree_run(LockSel lock, Scheme scheme, std::size_t size,
                           int update_pct) {
  harness::RbPoint p;
  p.size = size;
  p.update_pct = update_pct;
  p.threads = 8;
  p.scheme = locks::ElisionPolicy::from_scheme(scheme);
  p.lock = lock;
  p.duration_sec = 0.002;
  return harness::run_rb_point_once(p);
}

TEST(Figures, Fig31_McsGoesFullyNonSpeculative) {
  const auto hle = tree_run(LockSel::kMcs, Scheme::kHle, 128, 20);
  EXPECT_GT(hle.nonspec_fraction(), 0.9);
  EXPECT_NEAR(hle.attempts_per_op(), 2.0, 0.15);
}

TEST(Figures, Fig31_McsGainsNothingFromHle) {
  const auto std_ = tree_run(LockSel::kMcs, Scheme::kStandard, 128, 20);
  const auto hle = tree_run(LockSel::kMcs, Scheme::kHle, 128, 20);
  EXPECT_NEAR(hle.throughput() / std_.throughput(), 1.0, 0.25);
}

TEST(Figures, Fig31_TtasRecoversAndGains) {
  const auto std_ = tree_run(LockSel::kTtas, Scheme::kStandard, 128, 20);
  const auto hle = tree_run(LockSel::kTtas, Scheme::kHle, 128, 20);
  EXPECT_LT(hle.nonspec_fraction(), 0.5);
  EXPECT_GT(hle.throughput() / std_.throughput(), 1.5);
}

TEST(Figures, Fig31_TtasConvergesToSpeculativeOnLargeTrees) {
  const auto hle = tree_run(LockSel::kTtas, Scheme::kHle, 8192, 20);
  EXPECT_LT(hle.nonspec_fraction(), 0.1);
  EXPECT_LT(hle.attempts_per_op(), 1.4);
}

TEST(Figures, Fig52_ScmRescuesTheMcsLock) {
  const auto hle = tree_run(LockSel::kMcs, Scheme::kHle, 512, 20);
  const auto scm = tree_run(LockSel::kMcs, Scheme::kHleScm, 512, 20);
  EXPECT_GT(scm.throughput() / hle.throughput(), 1.5);
  EXPECT_LT(scm.nonspec_fraction(), 0.05);
}

TEST(Figures, Fig52_PessimisticSlrIsPoorOnTtas) {
  const auto hle = tree_run(LockSel::kTtas, Scheme::kHle, 512, 20);
  const auto pes = tree_run(LockSel::kTtas, Scheme::kPesSlr, 512, 20);
  EXPECT_LT(pes.throughput(), hle.throughput());
}

TEST(Figures, Fig53_ScmConvergesToOneAttempt) {
  const auto scm = tree_run(LockSel::kMcs, Scheme::kHleScm, 8192, 100);
  EXPECT_LT(scm.attempts_per_op(), 1.15);
  EXPECT_LT(scm.nonspec_fraction(), 0.02);
}

TEST(Figures, HashTable_ScmLargeFactorOverHleMcs) {
  // The data-structure headline: a large SCM-over-HLE factor on the
  // short-transaction hash-table workload (paper: up to 10x).
  auto run = [&](locks::Scheme scheme) {
    harness::BenchConfig cfg;
    cfg.machine.seed = 42;
    cfg.policy = locks::ElisionPolicy::from_scheme(scheme);
    return harness::run_keyed(cfg, {.set = harness::KeyedSet::kHashTable,
                                    .size = 1024,
                                    .lock = LockSel::kMcs,
                                    .update_pct = 100});
  };
  const auto hle = run(locks::Scheme::kHle);
  const auto scm = run(locks::Scheme::kHleScm);
  EXPECT_GT(scm.throughput() / hle.throughput(), 3.0);
}

TEST(Figures, Fig35_HleAndRtmElisionComparable) {
  const auto hle = tree_run(LockSel::kTtas, Scheme::kHle, 512, 20);
  const auto rtm = tree_run(LockSel::kTtas, Scheme::kRtmElide, 512, 20);
  const double ratio = rtm.throughput() / hle.throughput();
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(Figures, Fig21_WriteCliffAt32K) {
  // Transactional writes: 512 lines commit, 600 lines never do.
  sim::MachineConfig m;
  m.n_cores = 1;
  sim::Scheduler sched(m);
  tsx::Engine eng(sched);
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> data(600);
  unsigned small_status = 1, big_status = 1;
  sched.spawn([&](sim::SimThread& st) {
    auto& ctx = eng.context(st);
    // Retry the small transaction a few times in case of a spurious abort.
    for (int tries = 0; tries < 5; ++tries) {
      small_status = eng.run_transaction(ctx, [&] {
        for (int i = 0; i < 500; ++i) data[i].value.store(ctx, 1);
      });
      if (small_status == tsx::kCommitted) break;
    }
    big_status = eng.run_transaction(ctx, [&] {
      for (int i = 0; i < 600; ++i) data[i].value.store(ctx, 1);
    });
  });
  sched.run();
  EXPECT_EQ(small_status, tsx::kCommitted);
  EXPECT_NE(big_status, tsx::kCommitted);
  EXPECT_TRUE(big_status & tsx::status::kCapacity);
}

}  // namespace
}  // namespace elision

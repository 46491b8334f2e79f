// Tier-1 schedule-exploration tests: a small seed sweep over every
// scheme x lock x workload cell must hold all invariants, the perturbation
// layer must be deterministic and actually fire, and the harness must be
// able to find (and shrink) the planted RacyLock bug — the self-test that
// proves the checkers are not vacuous.
#include <gtest/gtest.h>

#include "stress/invariants.hpp"
#include "stress/stress.hpp"

namespace elision {
namespace {

using locks::ElisionPolicy;
using namespace stress;

StressOptions quick_options() {
  StressOptions o;
  o.duration_ms = 0.02;
  return o;
}

TEST(Stress, SweepAllSchemesAllLocksHoldsInvariants) {
  const SweepStats s = sweep(quick_options(), all_policies(),
                             locks::lock_ids(0, locks::kPlanted),
                             all_workloads(), /*first_seed=*/1,
                             /*n_seeds=*/2);
  EXPECT_EQ(s.runs, 8 * 8 * 4 * 2);  // 8 policies incl. the adaptive one
  EXPECT_GT(s.total_ops, 0u);
  for (const FailureReport& f : s.failures) {
    ADD_FAILURE() << case_name(f.c) << ": " << f.outcome.violations.front();
  }
}

TEST(Stress, PerturbationFiresAndIsDeterministic) {
  const StressOptions o = quick_options();
  StressCase c;
  c.policy = ElisionPolicy::hle_scm();
  c.lock = locks::LockId::kTtas;
  c.workload = Workload::kHashTable;
  c.perturb_seed = 7;
  const RunOutcome a = run_case(o, c);
  const RunOutcome b = run_case(o, c);
  EXPECT_GT(a.perturb_points_used, 0u);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.perturb_points_used, b.perturb_points_used);
}

TEST(Stress, PerturbationSeedChangesTheSchedule) {
  const StressOptions o = quick_options();
  StressCase c;
  c.policy = ElisionPolicy::hle();
  c.lock = locks::LockId::kTtas;
  c.workload = Workload::kCounter;
  c.perturb_seed = 1;
  const RunOutcome a = run_case(o, c);
  c.perturb_seed = 2;
  const RunOutcome b = run_case(o, c);
  // Different injection points => different interleaving => (with these
  // run lengths) different completion counts.
  EXPECT_NE(a.ops, b.ops);
}

TEST(Stress, BudgetCapsInjections) {
  StressOptions o = quick_options();
  StressCase c;
  c.policy = ElisionPolicy::hle();
  c.lock = locks::LockId::kMcs;
  c.workload = Workload::kCounter;
  c.perturb_seed = 3;
  c.perturb_points = 5;
  const RunOutcome out = run_case(o, c);
  EXPECT_LE(out.perturb_points_used, 5u);
}

// The whole point of the subsystem: a planted check-then-act bug that the
// unperturbed schedule misses must be caught by the sweep and shrink to a
// small budget.
TEST(Stress, SelfTestFindsPlantedRacyLockBug) {
  StressOptions o = quick_options();
  o.duration_ms = 0.05;
  const SweepStats s =
      sweep(o, {ElisionPolicy::standard()}, {locks::LockId::kRacy},
            {Workload::kCounter}, /*first_seed=*/1, /*n_seeds=*/10);
  ASSERT_FALSE(s.failures.empty())
      << "perturbed sweep missed the planted RacyLock bug";
  const FailureReport& f = s.failures.front();
  EXPECT_FALSE(f.outcome.violations.empty());
  // Minimization must end at a budget no larger than what the original
  // (unlimited-budget) failing run injected, and still reproduce.
  EXPECT_GT(f.minimized_points, 0u);
  StressCase repro = f.c;
  repro.perturb_points = f.minimized_points;
  EXPECT_FALSE(run_case(o, repro).ok());
}

// The shared-mode sibling of the RacyLock self-test: the reader-writer
// invariants must catch GreedySharedLock's planted writer starvation
// (readers barge past announced writer intent), and must stay quiet on the
// correct SharedTtasLock under the identical configuration.
TEST(Stress, SelfTestFindsPlantedWriterStarvation) {
  StressOptions o = quick_options();
  // One dedicated writer thread against a pure reader crowd (mixed-duty
  // threads would all eventually block as writers, draining the crowd and
  // closing the starvation window).
  o.duration_ms = 0.2;
  o.btree_writer_threads = 1;
  o.btree_writer_gap_cycles = 4000;  // reader windows on a correct lock
  o.btree_read_dwell_cycles = 1500;
  const SweepStats broken =
      sweep(o, {ElisionPolicy::standard()}, {locks::LockId::kGreedyShared},
            {Workload::kBtree}, /*first_seed=*/1, /*n_seeds=*/5);
  bool found = false;
  for (const FailureReport& f : broken.failures) {
    for (const std::string& v : f.outcome.violations) {
      if (v.find("writer lockout") != std::string::npos) found = true;
    }
  }
  EXPECT_TRUE(found)
      << "perturbed sweep missed the planted writer starvation";
  const SweepStats control =
      sweep(o, {ElisionPolicy::standard()}, {locks::LockId::kSharedTtas},
            {Workload::kBtree}, /*first_seed=*/1, /*n_seeds=*/5);
  for (const FailureReport& f : control.failures) {
    ADD_FAILURE() << "correct lock flagged: " << case_name(f.c) << ": "
                  << f.outcome.violations.front();
  }
}

TEST(InvariantsTest, MutualExclusionCounterBalances) {
  MutualExclusionChecker checker;
  EXPECT_EQ(checker.violations(), 0u);
  checker.reset();
  EXPECT_EQ(checker.violations(), 0u);
}

TEST(InvariantsTest, StarvationWatchdogFlagsSilentThread) {
  StarvationWatchdog dog(/*n_threads=*/2, /*gap_cycles=*/1000,
                         /*min_other_ops=*/3);
  // Thread 0 completes steadily; thread 1 never completes.
  for (int i = 1; i <= 5; ++i) {
    dog.note_completion(0, static_cast<std::uint64_t>(i) * 400);
  }
  dog.finish(2000);
  ASSERT_EQ(dog.violations().size(), 1u);
  EXPECT_NE(dog.violations()[0].find("thread 1"), std::string::npos);
}

TEST(InvariantsTest, StarvationWatchdogIgnoresIdleSystem) {
  StarvationWatchdog dog(/*n_threads=*/2, /*gap_cycles=*/1000,
                         /*min_other_ops=*/3);
  // Huge gap but nothing else completed either: the system was idle, no
  // thread was singled out.
  dog.note_completion(0, 50);
  dog.finish(100000);
  EXPECT_TRUE(dog.violations().empty());
}

TEST(InvariantsTest, RoleLockoutFlagsSilentRole) {
  RoleLockoutChecker roles(/*gap_cycles=*/1000, /*min_other_ops=*/3);
  // Readers complete steadily; no writer ever completes.
  for (int i = 1; i <= 6; ++i) {
    roles.note_reader(static_cast<std::uint64_t>(i) * 300);
  }
  roles.finish(2000);
  ASSERT_EQ(roles.violations().size(), 1u);
  EXPECT_NE(roles.violations()[0].find("writer lockout"), std::string::npos);
}

TEST(InvariantsTest, RoleLockoutIgnoresIdleSystem) {
  RoleLockoutChecker roles(/*gap_cycles=*/1000, /*min_other_ops=*/3);
  roles.note_reader(50);
  roles.note_writer(60);
  roles.finish(100000);  // both roles idle: nothing singled out
  EXPECT_TRUE(roles.violations().empty());
}

}  // namespace
}  // namespace elision

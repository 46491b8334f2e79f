// Tier-1 schedule-exploration tests: a small seed sweep over every
// scheme x lock x workload cell must hold all invariants, the perturbation
// layer must be deterministic and actually fire, and the harness must be
// able to find (and shrink) the planted RacyLock bug — the self-test that
// proves the checkers are not vacuous — and a lease-lock race that only an
// injected delay reaches.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "harness/invariants.hpp"
#include "harness/runner.hpp"
#include "sim/scheduler.hpp"
#include "stress/stress.hpp"
#include "tsx/engine.hpp"
#include "tsx/shared.hpp"

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
  // 8 policies incl. the adaptive one.
  EXPECT_EQ(s.runs, 8 * 8 * static_cast<int>(all_workloads().size()) * 2);
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

// The planted check-then-act bug must be caught by the perturbed sweep and
// shrink to a small budget.
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

  // Control: the same case with the perturbation layer off (a budget of 0
  // means unlimited, so the probability is what turns it off).
  StressOptions calm = o;
  calm.perturb_probability = 0;
  StressCase unperturbed = f.c;
  unperturbed.perturb_points = 0;
  const RunOutcome control = run_case(calm, unperturbed);
  EXPECT_EQ(control.perturb_points_used, 0u);
  // The unperturbed schedule finds the bug too: at zero yield slack every
  // access past the bound yields, so threads interleave between the test
  // and the act all the time. The self-test shows that the checkers are
  // not vacuous, not that perturbation reaches a window the default
  // schedule misses.
  EXPECT_FALSE(control.ok());
  EXPECT_GT(control.ops, 0u);
}

// The planted bug is found through the suite's own runners too. Not
// minimized: the minimizer reruns a failing case at smaller budgets, closer
// to the default schedule, where the hash table's corrupted chains can
// loop.
TEST(Stress, SelfTestFindsPlantedRacyLockOnSharedRunners) {
  StressOptions o = quick_options();
  o.minimize = false;
  const SweepStats s =
      sweep(o, {ElisionPolicy::standard()}, {locks::LockId::kRacy},
            {Workload::kHashTable, Workload::kBtree}, /*first_seed=*/1,
            /*n_seeds=*/3);
  EXPECT_EQ(s.failures.size(), 6u);
  for (const FailureReport& f : s.failures) {
    bool overlap = false;
    for (const std::string& v : f.outcome.violations) {
      overlap |= v.starts_with("mutual exclusion: ");
    }
    EXPECT_TRUE(overlap) << case_name(f.c);
  }
  EXPECT_FALSE(planted_may_run(Workload::kRbTree));
  EXPECT_FALSE(planted_may_run(Workload::kSkipList));
  EXPECT_FALSE(planted_may_run(Workload::kShardedKv));
}

// An unperturbed sweep over correct locks. Perturbation turns spin-wait
// parking off (sim::Scheduler::spin_parking), so this is the stress run
// in which waiters park and are replayed by the scheduler; every invariant
// must still hold.
TEST(Stress, UnperturbedSweepOverCorrectLocksHoldsInvariants) {
  StressOptions o = quick_options();
  o.perturb_probability = 0;
  const SweepStats s =
      sweep(o, all_policies(), {locks::LockId::kTtas, locks::LockId::kMcs},
            all_workloads(), /*first_seed=*/1, /*n_seeds=*/1);
  EXPECT_EQ(s.runs, 8 * 2 * static_cast<int>(all_workloads().size()));
  EXPECT_GT(s.total_ops, 0u);
  for (const FailureReport& f : s.failures) {
    ADD_FAILURE() << case_name(f.c) << ": " << f.outcome.violations.front();
  }
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
      if (v.starts_with("role lockout: writers")) found = true;
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

// A lease lock, a planted bug only perturbation reaches. The holder stamps
// the lock word with its clock; a waiter that finds the stamp more than
// kLeaseCycles old takes the holder for dead and steals the lock. That is
// sound only while every critical section ends within the lease. On the
// default schedule none outlasts it (the longest holds the lock for under
// 200 cycles at seeds 1-5); one injected delay of up to
// perturb_max_delay_cycles (2000) inside a section does.
class LeaseLock {
 public:
  static constexpr std::uint64_t kLeaseCycles = 1500;

  void lock(tsx::Ctx& ctx) {
    for (;;) {
      const std::uint64_t now = ctx.thread().now() + 1;  // never 0 (free)
      const std::uint64_t stamp = word_.load(ctx);
      if ((stamp == 0 || now - stamp > kLeaseCycles) &&
          word_.compare_exchange(ctx, stamp, now)) {
        return;
      }
      ctx.engine().compute(ctx, 40);
    }
  }
  void unlock(tsx::Ctx& ctx) { word_.store(ctx, 0); }

 private:
  tsx::Shared<std::uint64_t> word_{0};
};

// Eight threads increment one counter under the lease lock, every section
// through the sink's occupancy check; returns the run's violations.
std::vector<std::string> lease_lock_run(double probability,
                                        std::uint64_t seed) {
  const StressOptions o = quick_options();
  harness::Invariants sink(o.threads, o.starvation_gap_cycles,
                           o.starvation_min_other_ops);
  harness::BenchConfig cfg;
  cfg.threads = o.threads;
  cfg.duration_sec = o.duration_ms / 1e3;
  cfg.machine.seed = seed;
  cfg.machine.perturb.probability = probability;
  cfg.machine.perturb.max_delay_cycles = o.perturb_max_delay_cycles;
  cfg.machine.perturb.seed = seed;
  cfg.invariants = &sink;
  LeaseLock lease;
  tsx::Shared<std::uint64_t> counter(0);
  const harness::RunStats stats =
      harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        lease.lock(ctx);
        sink.occupy(ctx, locks::AccessMode::kExclusive, [&] {
          counter.store(ctx, counter.load(ctx) + 1);
          ctx.engine().compute(ctx, 100);
        });
        lease.unlock(ctx);
        sink.completed(ctx);
        return locks::RegionResult{.speculative = false, .attempts = 1};
      });
  EXPECT_GT(stats.ops, 0u);
  return sink.finish(stats.elapsed_cycles);
}

// The stress self-test that perturbation is more than noise: at the same
// seeds, the default schedule holds mutual exclusion under the lease lock
// and the perturbed sweep finds the stolen lease.
TEST(Stress, PerturbationFindsARaceTheDefaultScheduleMisses) {
  const double perturbed = quick_options().perturb_probability;
  int found = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<std::string> calm = lease_lock_run(0, seed);
    EXPECT_TRUE(calm.empty()) << "seed " << seed << ": " << calm.front();
    for (const std::string& v : lease_lock_run(perturbed, seed)) {
      if (v.starts_with("mutual exclusion: ")) ++found;
    }
  }
  EXPECT_GT(found, 0) << "perturbed sweep missed the stolen lease";
}

// Runs `body` on one simulated thread, with no spurious aborts.
void on_sim_thread(const std::function<void(tsx::Ctx&)>& body) {
  sim::Scheduler sched(sim::MachineConfig{});
  tsx::TsxConfig quiet;
  quiet.spurious_per_begin = 0;
  quiet.spurious_per_access = 0;
  tsx::Engine eng(sched, quiet);
  sched.spawn([&](sim::SimThread& st) { body(eng.context(st)); });
  sched.run();
}

constexpr auto kExclusive = locks::AccessMode::kExclusive;
constexpr auto kShared = locks::AccessMode::kShared;

TEST(InvariantsTest, OverlappingExclusiveOccupanciesCountOnce) {
  harness::OccupancyChecker checker;
  on_sim_thread([&](tsx::Ctx& ctx) {
    checker.occupy(ctx, kExclusive, [&] {
      checker.occupy(ctx, kExclusive, [] {});
    });
    checker.occupy(ctx, kExclusive, [] {});  // alone again: no overlap
  });
  EXPECT_EQ(checker.overlaps(), 1u);
  EXPECT_EQ(checker.rw_overlaps(), 0u);
}

TEST(InvariantsTest, TransactionalOccupancyIsNotCounted) {
  harness::OccupancyChecker checker;
  unsigned status = 0;
  on_sim_thread([&](tsx::Ctx& ctx) {
    checker.occupy(ctx, kExclusive, [&] {
      status = ctx.engine().run_transaction(ctx, [&] {
        checker.occupy(ctx, kExclusive, [] {});
        checker.occupy(ctx, kShared, [] {});
      });
    });
  });
  EXPECT_EQ(status, tsx::kCommitted);
  EXPECT_EQ(checker.overlaps(), 0u);
  EXPECT_EQ(checker.rw_overlaps(), 0u);
}

TEST(InvariantsTest, SharedOccupanciesOverlapFreely) {
  harness::OccupancyChecker checker;
  on_sim_thread([&](tsx::Ctx& ctx) {
    checker.occupy(ctx, kShared, [&] {
      checker.occupy(ctx, kShared, [&] {
        checker.occupy(ctx, kShared, [] {});
      });
    });
  });
  EXPECT_EQ(checker.overlaps(), 0u);
  EXPECT_EQ(checker.rw_overlaps(), 0u);
}

TEST(InvariantsTest, WriterOverReaderCountsOnce) {
  harness::OccupancyChecker checker;
  on_sim_thread([&](tsx::Ctx& ctx) {
    checker.occupy(ctx, kShared, [&] {
      checker.occupy(ctx, kExclusive, [] {});
    });
  });
  EXPECT_EQ(checker.overlaps(), 0u);
  EXPECT_EQ(checker.rw_overlaps(), 1u);
}

// A set as check_set sees it.
struct FakeSet {
  std::size_t size = 0;
  const char* broken = nullptr;
  bool unsafe_validate(std::string* why) const {
    if (broken != nullptr) *why = broken;
    return broken == nullptr;
  }
  std::size_t unsafe_size() const { return size; }
};

TEST(InvariantsTest, LedgerReconcilesCommittedEffects) {
  // No watchdog or role lockout here: nothing else ever completes.
  harness::Invariants sink(/*threads=*/1, /*gap_cycles=*/1000,
                           /*min_other_ops=*/1000);
  using Op = harness::KeyedOp;
  on_sim_thread([&](tsx::Ctx& ctx) {
    sink.completed(ctx, {.kind = Op::kInsert, .hit = true});
    sink.completed(ctx, {.kind = Op::kInsert, .hit = false});
    sink.completed(ctx, {.kind = Op::kErase, .hit = true});
    sink.completed(ctx, {.kind = Op::kInsert, .hit = true});
    sink.completed(ctx,
                   {.kind = Op::kLookup, .hit = true, .value = 4, .expected = 4});
  });
  sink.check_set("fake", 10, FakeSet{.size = 11});
  EXPECT_TRUE(sink.finish(0).empty());

  harness::Invariants torn(1, 1000, 1000);
  on_sim_thread([&](tsx::Ctx& ctx) {
    torn.completed(ctx,
                   {.kind = Op::kLookup, .hit = true, .value = 5, .expected = 4});
    // A miss reads nothing, so its value is not checked.
    torn.completed(ctx,
                   {.kind = Op::kLookup, .hit = false, .value = 9, .expected = 4});
  });
  torn.check_set("fake", 10, FakeSet{.size = 12, .broken = "cycle"});
  const std::vector<std::string> v = torn.finish(0);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "fake structure: cycle");
  EXPECT_NE(v[1].find("fake net size"), std::string::npos);
  EXPECT_EQ(v[2], "fake torn values: 1 lookups read a value no store wrote");
}

TEST(InvariantsTest, StarvationWatchdogFlagsSilentMember) {
  harness::StarvationWatchdog dog({"thread 0", "thread 1"},
                                  /*gap_cycles=*/1000, /*min_other_ops=*/3);
  // Thread 0 completes steadily; thread 1 never completes.
  for (int i = 1; i <= 5; ++i) {
    dog.note_completion(0, static_cast<std::uint64_t>(i) * 400);
  }
  dog.finish(2000);
  ASSERT_EQ(dog.violations().size(), 1u);
  EXPECT_EQ(dog.violations()[0],
            "thread 1 completed nothing for 2000 cycles while 5 other "
            "completions went through");
}

TEST(InvariantsTest, StarvationWatchdogIgnoresIdleSystem) {
  harness::StarvationWatchdog dog({"readers", "writers"},
                                  /*gap_cycles=*/1000, /*min_other_ops=*/3);
  // Huge gap but nothing else completed either: the system was idle, no
  // member was singled out.
  dog.note_completion(0, 50);
  dog.note_completion(1, 60);
  dog.finish(100000);
  EXPECT_TRUE(dog.violations().empty());
}

// The sink watches roles as well as threads: with every thread mixing
// reads and updates, no thread starves while the writers do.
TEST(InvariantsTest, SinkFlagsSilentRole) {
  harness::Invariants sink(/*threads=*/1, /*gap_cycles=*/1000,
                           /*min_other_ops=*/3);
  on_sim_thread([&](tsx::Ctx& ctx) {
    for (int i = 0; i < 6; ++i) {
      ctx.engine().compute(ctx, 300);
      sink.completed(ctx, {.kind = harness::KeyedOp::kLookup});
    }
  });
  const std::vector<std::string> v = sink.finish(2000);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(v[0].starts_with("role lockout: writers completed nothing"))
      << v[0];
}

}  // namespace
}  // namespace elision

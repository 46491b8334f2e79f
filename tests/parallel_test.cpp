// Tier-1 tests of the in-process parallel-simulation primitive
// (support/parallel.hpp) and its determinism contract at every layer that
// fans out across host threads: raw parallel_for_each, the stress sweep,
// the multi-seed RB-tree point, and the STAMP job runner. The contract
// under test is always the same: any host-thread count produces results
// byte-identical to sequential execution.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness/rb_workload.hpp"
#include "harness/runner.hpp"
#include "stamp/common.hpp"
#include "stress/stress.hpp"
#include "support/parallel.hpp"

namespace {

using namespace elision;

TEST(ParallelForEach, RunsEveryItemExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    std::vector<int> hits(257, 0);
    support::parallel_for_each(
        hits.size(), [&](std::size_t i) { ++hits[i]; }, threads);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "item " << i << " at threads=" << threads;
    }
  }
}

TEST(ParallelForEach, ZeroItemsAndMoreThreadsThanItems) {
  std::atomic<int> ran{0};
  support::parallel_for_each(0, [&](std::size_t) { ++ran; }, 8);
  EXPECT_EQ(ran.load(), 0);
  support::parallel_for_each(3, [&](std::size_t) { ++ran; }, 64);
  EXPECT_EQ(ran.load(), 3);
}

// Item-order merging must hold regardless of completion order, so make
// completion order adversarial: early items sleep longest and finish last.
TEST(ParallelForEach, ResultsLandInItemSlotsUnderAdversarialDurations) {
  constexpr std::size_t kItems = 48;
  std::vector<std::uint64_t> expected(kItems);
  for (std::size_t i = 0; i < kItems; ++i) expected[i] = i * i + 7;
  for (const int threads : {1, 2, 8}) {
    std::vector<std::uint64_t> out(kItems, 0);
    support::parallel_for_each(
        kItems,
        [&](std::size_t i) {
          std::this_thread::sleep_for(
              std::chrono::microseconds((kItems - i) * 20));
          out[i] = i * i + 7;
        },
        threads);
    EXPECT_EQ(out, expected) << "threads=" << threads;
  }
}

TEST(ParallelForEach, ExceptionPropagatesAndCancelsRemainingItems) {
  // Inline path: items after the throwing one never run at all.
  std::atomic<int> ran{0};
  EXPECT_THROW(
      support::parallel_for_each(
          100,
          [&](std::size_t i) {
            ++ran;
            if (i == 3) throw std::runtime_error("item 3");
          },
          1),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 4);

  // Threaded path: the first failure stops new claims, so only the handful
  // of jobs already in flight can still execute.
  ran = 0;
  EXPECT_THROW(
      support::parallel_for_each(
          10000,
          [&](std::size_t i) {
            ++ran;
            if (i == 0) throw std::runtime_error("item 0");
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          },
          4),
      std::runtime_error);
  EXPECT_LT(ran.load(), 5000);
}

TEST(ParallelForEach, LowestThrowingItemWinsDeterministically) {
  // Every item throws its own index; item 0 is always claimed, so the
  // rethrown exception must always carry index 0 no matter which worker
  // lost the race.
  for (const int threads : {1, 2, 8}) {
    for (int round = 0; round < 5; ++round) {
      std::size_t thrown = SIZE_MAX;
      try {
        support::parallel_for_each(
            64, [&](std::size_t i) { throw i; }, threads);
        FAIL() << "expected an exception";
      } catch (const std::size_t& i) {
        thrown = i;
      }
      EXPECT_EQ(thrown, 0u) << "threads=" << threads;
    }
  }
}

TEST(ParallelSupport, HostHardwareThreadsIsPositive) {
  EXPECT_GE(support::host_hardware_threads(), 1);
}

// ---------------------------------------------------------------------------
// Stress sweep: SweepStats and the on_run sequence must be byte-identical
// across host-thread counts.
// ---------------------------------------------------------------------------

std::vector<std::string> sweep_log(int host_threads, stress::SweepStats* out) {
  stress::StressOptions o;
  o.threads = 4;
  o.duration_ms = 0.03;
  o.host_threads = host_threads;
  std::vector<std::string> log;
  *out = stress::sweep(
      o, {locks::ElisionPolicy::hle(), locks::ElisionPolicy::hle_scm()},
      {stress::LockKind::kTtas, stress::LockKind::kMcs},
      stress::all_workloads(), /*first_seed=*/1, /*n_seeds=*/2,
      [&](const stress::StressCase& c, const stress::RunOutcome& r) {
        log.push_back(stress::case_name(c) + " ops=" + std::to_string(r.ops) +
                      " aborts=" + std::to_string(r.aborts) +
                      " elapsed=" + std::to_string(r.elapsed_cycles));
      });
  return log;
}

TEST(ParallelStress, SweepByteIdenticalAcrossHostThreads) {
  stress::SweepStats serial;
  const std::vector<std::string> serial_log = sweep_log(1, &serial);
  // 2 policies x 2 locks x all workloads x 2 seeds.
  ASSERT_EQ(serial.runs,
            static_cast<int>(8 * stress::all_workloads().size()));
  for (const int ht : {2, 4}) {
    stress::SweepStats threaded;
    const std::vector<std::string> log = sweep_log(ht, &threaded);
    EXPECT_EQ(log, serial_log) << "host_threads=" << ht;
    EXPECT_EQ(threaded.runs, serial.runs);
    EXPECT_EQ(threaded.total_ops, serial.total_ops);
    EXPECT_EQ(threaded.failures.size(), serial.failures.size());
  }
}

// ---------------------------------------------------------------------------
// Multi-seed RB point: every merged RunStats field must match sequential.
// ---------------------------------------------------------------------------

harness::RunStats rb_stats(int host_threads, double* arrival) {
  harness::RbPoint p;
  p.size = 64;
  p.threads = 4;
  p.seeds = 4;
  p.duration_sec = 0.001;
  p.scheme = locks::ElisionPolicy::hle_scm();
  p.timeline_slot_cycles = 20000;  // exercise timeline slot-wise merging
  p.host_threads = host_threads;
  p.arrival_held_frac = arrival;
  return harness::run_rb_point(p);
}

TEST(ParallelRbWorkload, MultiSeedPointByteIdenticalAcrossHostThreads) {
  double arr1 = 0.0;
  const harness::RunStats a = rb_stats(1, &arr1);
  double arr4 = 0.0;
  const harness::RunStats b = rb_stats(4, &arr4);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.spec_ops, b.spec_ops);
  EXPECT_EQ(a.nonspec_ops, b.nonspec_ops);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.perturb_points, b.perturb_points);
  EXPECT_EQ(a.tx.begins, b.tx.begins);
  EXPECT_EQ(a.tx.commits, b.tx.commits);
  EXPECT_EQ(a.tx.aborts, b.tx.aborts);
  EXPECT_EQ(arr1, arr4);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].ops, b.timeline[i].ops) << "slot " << i;
    EXPECT_EQ(a.timeline[i].nonspec_ops, b.timeline[i].nonspec_ops)
        << "slot " << i;
  }
  EXPECT_GT(a.ops, 0u);
}

// ---------------------------------------------------------------------------
// STAMP: run_apps must return results in job order, byte-identical to
// sequential execution.
// ---------------------------------------------------------------------------

std::vector<stamp::StampResult> stamp_results(int host_threads) {
  std::vector<stamp::StampJob> jobs;
  for (const char* app : {"genome", "ssca2", "kmeans_low", "genome"}) {
    stamp::StampConfig cfg;
    cfg.threads = 4;
    cfg.scale = 0.05;
    cfg.scheme = locks::Scheme::kHleScm;
    jobs.push_back({app, cfg});
  }
  jobs[3].cfg.scheme = locks::Scheme::kStandard;  // distinct duplicate app
  return stamp::run_apps(jobs, host_threads);
}

TEST(ParallelStamp, RunAppsByteIdenticalAndInJobOrder) {
  const auto serial = stamp_results(1);
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(serial[0].app, "genome");
  EXPECT_EQ(serial[1].app, "ssca2");
  EXPECT_EQ(serial[2].app, "kmeans_low");
  const auto threaded = stamp_results(4);
  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(threaded[i].app, serial[i].app) << "job " << i;
    EXPECT_EQ(threaded[i].checksum, serial[i].checksum) << "job " << i;
    EXPECT_EQ(threaded[i].invariants_ok, serial[i].invariants_ok);
    EXPECT_EQ(threaded[i].elapsed_cycles, serial[i].elapsed_cycles);
    EXPECT_EQ(threaded[i].ops, serial[i].ops) << "job " << i;
    EXPECT_EQ(threaded[i].nonspec_ops, serial[i].nonspec_ops);
    EXPECT_EQ(threaded[i].attempts, serial[i].attempts) << "job " << i;
  }
}

}  // namespace

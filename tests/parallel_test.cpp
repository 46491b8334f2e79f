// Tier-1 tests of the in-process parallel-simulation primitive
// (support/parallel.hpp) and its determinism contract at every layer that
// fans out across host threads: raw parallel_for_each, the stress sweep,
// run_point's multi-seed fan-out for every seeded point kind, and the STAMP
// job runner. The contract
// under test is always the same: any host-thread count produces results
// byte-identical to sequential execution.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "harness/suite.hpp"
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
// run_point: every multi-seed point kind must merge to the same RunStats at
// any host-thread count, and its arrival and shard counters must be the sums
// of its single-seed runs.
// ---------------------------------------------------------------------------

using harness::PointKind;
using harness::PointWorkload;
using harness::RunStats;

PointWorkload small_point(PointKind kind) {
  switch (kind) {
    case PointKind::kRb: {
      harness::RbPoint p;
      p.size = 16;
      p.threads = 4;
      p.seeds = 4;
      p.duration_sec = 0.001;
      p.scheme = locks::ElisionPolicy::hle();
      p.telemetry = true;
      p.timeline_slot_cycles = 20000;  // exercise timeline slot-wise merging
      return p;
    }
    case PointKind::kBtree: {
      harness::BtPoint p;
      p.threads = 4;
      p.seeds = 3;
      p.duration_sec = 0.0005;
      p.policy = locks::ElisionPolicy::hle().shared();
      return p;
    }
    case PointKind::kPhase: {
      harness::PhasePoint p;
      p.phase_sec = 0.0002;
      p.seeds = 3;
      return p;
    }
    case PointKind::kKv: {
      service::KvPoint p;
      p.keys = 2048;
      p.clients = 500;
      p.threads = 4;
      p.duration_sec = 0.0004;
      p.seeds = 3;
      return p;
    }
    case PointKind::kMicro:
      break;
  }
  return harness::MicroPoint{};
}

// One seed of `w`, through its kind's run_*_point_once.
RunStats run_one_seed(PointWorkload w, std::uint64_t seed) {
  return std::visit(
      [seed](auto p) {
        using Point = decltype(p);
        p.seed = seed;
        if constexpr (std::is_same_v<Point, harness::RbPoint>) {
          return harness::run_rb_point_once(p);
        } else if constexpr (std::is_same_v<Point, harness::BtPoint>) {
          return harness::run_bt_point_once(p);
        } else if constexpr (std::is_same_v<Point, harness::PhasePoint>) {
          return harness::run_phase_point_once(p);
        } else if constexpr (std::is_same_v<Point, service::KvPoint>) {
          return service::run_kv_point_once(p);
        } else {
          return harness::run_micro_point(p);
        }
      },
      w);
}

void expect_same_hist(const harness::Histogram& a,
                      const harness::Histogram& b) {
  EXPECT_EQ(a.buckets(), b.buckets());
  EXPECT_EQ(a.samples(), b.samples());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.max(), b.max());
}

// Every simulated field. The fast-path hit counts are left out: they depend
// on host heap addresses, which differ with the thread that ran a seed.
void expect_same_stats(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.spec_ops, b.spec_ops);
  EXPECT_EQ(a.nonspec_ops, b.nonspec_ops);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.perturb_points, b.perturb_points);
  EXPECT_EQ(a.ghz, b.ghz);
  EXPECT_EQ(a.tx.begins, b.tx.begins);
  EXPECT_EQ(a.tx.commits, b.tx.commits);
  EXPECT_EQ(a.tx.aborts, b.tx.aborts);
  EXPECT_EQ(a.tx.aborts_by_cause, b.tx.aborts_by_cause);
  EXPECT_EQ(a.fp_bound_recomputes, b.fp_bound_recomputes);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].ops, b.timeline[i].ops) << "slot " << i;
    EXPECT_EQ(a.timeline[i].nonspec_ops, b.timeline[i].nonspec_ops)
        << "slot " << i;
  }
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.arrivals_lock_held, b.arrivals_lock_held);
  EXPECT_EQ(a.shard_requests, b.shard_requests);
  expect_same_hist(a.attempts_hist, b.attempts_hist);
  expect_same_hist(a.rejoin_hist, b.rejoin_hist);
  ASSERT_EQ(a.episodes.size(), b.episodes.size());
  for (std::size_t i = 0; i < a.episodes.size(); ++i) {
    EXPECT_EQ(a.episodes[i].start, b.episodes[i].start) << "episode " << i;
    EXPECT_EQ(a.episodes[i].end, b.episodes[i].end) << "episode " << i;
    EXPECT_EQ(a.episodes[i].victims, b.episodes[i].victims);
  }
  EXPECT_EQ(a.telemetry_events, b.telemetry_events);
  EXPECT_EQ(a.telemetry_dropped, b.telemetry_dropped);
  ASSERT_EQ(a.op_latency.size(), b.op_latency.size());
  for (std::size_t i = 0; i < a.op_latency.size(); ++i) {
    EXPECT_EQ(a.op_latency[i].op, b.op_latency[i].op);
    EXPECT_EQ(a.op_latency[i].hist.buckets(), b.op_latency[i].hist.buckets());
    EXPECT_EQ(a.op_latency[i].hist.sum(), b.op_latency[i].hist.sum());
    EXPECT_EQ(a.op_latency[i].hist.max(), b.op_latency[i].hist.max());
  }
}

class RunPointHostThreads : public ::testing::TestWithParam<PointKind> {};

TEST_P(RunPointHostThreads, MergeIsIdenticalAndSumsSeedCounters) {
  const PointWorkload w = small_point(GetParam());
  const RunStats serial = harness::run_point(w, 1);
  const RunStats threaded = harness::run_point(w, 3);
  EXPECT_GT(serial.ops, 0u);
  expect_same_stats(serial, threaded);

  // run_seeds' seed rule: seed s is the base seed plus s golden-ratio steps.
  const auto [seeds, base] = std::visit(
      [](const auto& p) -> std::pair<int, std::uint64_t> {
        if constexpr (requires { p.seeds; }) return {p.seeds, p.seed};
        return {1, p.seed};
      },
      w);
  std::uint64_t arrivals = 0;
  std::uint64_t held = 0;
  std::vector<std::uint64_t> shards;
  for (int s = 0; s < seeds; ++s) {
    const RunStats one = run_one_seed(
        w, base + static_cast<std::uint64_t>(s) * 0x9E3779B9ULL);
    arrivals += one.arrivals;
    held += one.arrivals_lock_held;
    shards.resize(one.shard_requests.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      shards[i] += one.shard_requests[i];
    }
  }
  EXPECT_EQ(serial.arrivals, arrivals);
  EXPECT_EQ(serial.arrivals_lock_held, held);
  EXPECT_EQ(serial.shard_requests, shards);
  // The rb and phase points run a TTAS lock and the kv point routes
  // requests to shards, so the sums above are not vacuous.
  const PointKind kind = GetParam();
  if (kind == PointKind::kRb || kind == PointKind::kPhase) {
    EXPECT_GT(held, 0u);
    EXPECT_GT(arrivals, held);
  }
  if (kind == PointKind::kKv) {
    ASSERT_EQ(shards.size(), 8u);
    for (const std::uint64_t n : shards) EXPECT_GT(n, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSeededKinds, RunPointHostThreads,
    ::testing::Values(PointKind::kRb, PointKind::kBtree, PointKind::kPhase,
                      PointKind::kKv),
    [](const ::testing::TestParamInfo<PointKind>& info) {
      return std::string(harness::point_kind_name(info.param));
    });

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

// Differential tests of the per-access fast paths (docs/simulator.md): the
// engine's owned-line cache and the scheduler's switch-bound batching are
// host-speed optimizations that must never change simulated results. Every
// workload here runs twice — fast paths on and off — and the two runs must
// agree on every virtual-time observable: ops, attempts, elapsed cycles,
// transaction counters per abort cause, and the final simulated memory
// image. Shapes cover 1..256 simulated threads (both sides of the ready
// queue's 16->17 group boundary), both yield-slack regimes, and locks whose
// waits go through Engine::spin_while: with the fast paths on those waiters
// park in the scheduler and get replayed, with them off they run the
// literal load/PAUSE loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "locks/clh_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "tsx/abort.hpp"

namespace elision::harness {
namespace {

struct ShapeRun {
  RunStats stats;
  std::vector<std::uint64_t> words;  // final simulated memory image
};

// An RB-tree-shaped access pattern in miniature: a handful of strided loads
// (re-reading the first line, so the owned-read tier gets hits) followed by
// a store, under an elided lock so the run produces real commits, aborts
// and lemming-effect or avalanche episodes to compare.
//
// `words` is caller-owned and shared by the on/off runs of a pair: line ids
// are real addresses >> 6, so the two runs must simulate the *same* array
// or heap-placement differences (L1 set mapping, line sharing) would
// diverge them for reasons that have nothing to do with the fast paths.
template <typename Lock>
ShapeRun run_shape(std::vector<std::uint64_t>& words, int threads,
                   std::uint64_t slack, bool fast,
                   const locks::ElisionPolicy& policy) {
  BenchConfig cfg;
  cfg.threads = threads;
  cfg.duration_sec = 0.0002;
  cfg.machine.n_cores = 8;
  cfg.machine.smt_per_core = 2;
  cfg.machine.yield_slack_cycles = slack;
  cfg.machine.seed = 7;
  cfg.machine.batch_switch_bound = fast;
  cfg.tsx.owned_line_fastpath = fast;

  Lock lock;
  locks::CriticalSection<Lock> cs(policy, lock);
  std::fill(words.begin(), words.end(), 0);
  ShapeRun out;
  out.stats = run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::size_t base = rng.next_below(words.size());
    return cs.run(ctx, [&] {
      auto& eng = ctx.engine();
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < 6; ++i) {
        std::size_t idx = base + i * 17;
        while (idx >= words.size()) idx -= words.size();
        sum += eng.load(ctx, &words[idx]);
      }
      sum += eng.load(ctx, &words[base]);  // repeat access: owned-read hit
      eng.store(ctx, &words[base], sum + 1);
    });
  });
  out.words = words;
  return out;
}

void expect_identical(const ShapeRun& on, const ShapeRun& off,
                      const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(on.stats.ops, off.stats.ops);
  EXPECT_EQ(on.stats.spec_ops, off.stats.spec_ops);
  EXPECT_EQ(on.stats.nonspec_ops, off.stats.nonspec_ops);
  EXPECT_EQ(on.stats.attempts, off.stats.attempts);
  EXPECT_EQ(on.stats.elapsed_cycles, off.stats.elapsed_cycles);
  EXPECT_EQ(on.stats.tx.begins, off.stats.tx.begins);
  EXPECT_EQ(on.stats.tx.commits, off.stats.tx.commits);
  EXPECT_EQ(on.stats.tx.aborts, off.stats.tx.aborts);
  for (int c = 0; c < static_cast<int>(tsx::AbortCause::kCauseCount); ++c) {
    EXPECT_EQ(on.stats.tx.aborts_by_cause[c], off.stats.tx.aborts_by_cause[c])
        << "cause " << to_string(static_cast<tsx::AbortCause>(c));
  }
  EXPECT_EQ(on.words, off.words) << "final memory image diverged";
}

template <typename Lock>
void check_lock_shape(const locks::ElisionPolicy& policy, const char* name) {
  std::vector<std::uint64_t> words(512);
  for (const int threads : {1, 2, 16, 17, 64, 256}) {
    for (const std::uint64_t slack : {std::uint64_t{0}, std::uint64_t{200}}) {
      const ShapeRun on = run_shape<Lock>(words, threads, slack, true, policy);
      const ShapeRun off =
          run_shape<Lock>(words, threads, slack, false, policy);
      const std::string what = std::string(name) +
                               " threads=" + std::to_string(threads) +
                               " slack=" + std::to_string(slack);
      expect_identical(on, off, what.c_str());

      // The runs must have simulated something worth comparing.
      EXPECT_GT(on.stats.ops, 0u) << what;
      EXPECT_GT(on.stats.tx.begins, 0u) << what;

      // Fast-path telemetry: engaged paths count, disabled paths stay zero
      // (the counters are how check.sh's A/B run proves which mode ran).
      EXPECT_EQ(off.stats.tx.fp_owned_hits, 0u) << what;
      EXPECT_EQ(off.stats.tx.fp_probe_skips, 0u) << what;
      EXPECT_EQ(off.stats.fp_bound_recomputes, 0u) << what;
      if (on.stats.tx.commits > 0) {
        EXPECT_GT(on.stats.tx.fp_owned_hits, 0u) << what;
      }
      if (threads > 1) {
        EXPECT_GT(on.stats.fp_bound_recomputes, 0u) << what;
      }
    }
  }
}

TEST(FastPathDifferential, IdenticalSimulationAcrossSizesAndSlack) {
  using locks::ElisionPolicy;
  check_lock_shape<locks::TtasLock>(ElisionPolicy::hle_scm(), "TTAS hle-scm");
  check_lock_shape<locks::McsLock>(ElisionPolicy::hle(), "MCS hle");
  check_lock_shape<locks::BasicTicketLock<true>>(ElisionPolicy::hle(),
                                                 "Ticket-adj hle");
  check_lock_shape<locks::BasicClhLock<true>>(ElisionPolicy::hle(),
                                              "CLH-adj hle");
}

// The validation gate in front of every run: degenerate machine shapes must
// exit(2) with a diagnostic instead of constructing a broken simulation
// (satellite of the fast-path PR because the t128/t256 points made the
// shape-override path load-bearing).
using FastPathDeath = ::testing::Test;

TEST(FastPathDeath, RejectsDegenerateMachineShapes) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto run = [](int threads, unsigned cores, unsigned smt) {
    BenchConfig cfg;
    cfg.threads = threads;
    cfg.machine.n_cores = cores;
    cfg.machine.smt_per_core = smt;
    validate_bench_config(cfg);
  };
  EXPECT_EXIT(run(0, 4, 2), ::testing::ExitedWithCode(2), "threads");
  EXPECT_EXIT(run(257, 4, 2), ::testing::ExitedWithCode(2), "threads");
  EXPECT_EXIT(run(8, 0, 2), ::testing::ExitedWithCode(2), "n_cores");
  EXPECT_EXIT(run(8, 4, 0), ::testing::ExitedWithCode(2), "smt_per_core");
  run(256, 128, 2);  // the t256 point's shape is valid
}

}  // namespace
}  // namespace elision::harness

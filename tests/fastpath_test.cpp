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
#include <initializer_list>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "locks/clh_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "sim/scheduler.hpp"
#include "support/align.hpp"
#include "tsx/abort.hpp"
#include "tsx/shared.hpp"

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
      EXPECT_EQ(harness::simulated_diff(on.stats, off.stats), "") << what;
      EXPECT_EQ(on.words, off.words) << what << ": memory image diverged";

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

// A parked spin-waiter's replay skips the quiet probe while its line's
// write version is the one its last quiet probe saw (sim::SpinWait). One
// waiter spins on `word != 0` while a trigger thread acts on the word's
// line; with batching on the waiter parks and is replayed, with it off it
// runs the literal loop, which probes at every load. Every action but the
// elided acquire ends the waiter's quiet state (a new value, a stripped
// copy, a claimed writer slot), so a replay that skipped a probe after it
// would run the waiter on stale state and its clock would diverge.
enum class Trigger {
  kReleasingStore,     // direct store of 0: the waiter returns
  kRmwKeepsWaiting,    // direct fetch_add: the predicate still holds
  kStoreStripsCopy,    // store of the same value: the next load misses L1
  kTxClaimAborts,      // a transaction claims the line, then aborts
  kTxCommitPublishes,  // a transaction publishes 0 at its commit
  kElidedAcquire,      // an HLE-elided acquire and release of the line
};

struct StampRun {
  std::vector<std::uint64_t> clocks;    // the trigger's, at each step
  std::vector<std::uint64_t> versions;  // the line's, at each step
  // Each transaction's status; 1 if the elided acquire found the lock free.
  std::vector<unsigned> results;
  std::uint64_t waiter_clock = 0;  // when the waiter's spin returned
  std::uint64_t observed = 0;      // the value it returned
  std::uint64_t elapsed = 0;
  std::uint64_t switches = 0;
};

StampRun run_stamp_case(tsx::SharedArray<std::uint64_t>& line, Trigger trig,
                        bool smt, bool batch, std::uint64_t slack,
                        std::uint64_t delay, std::uint64_t in_tx_cycles) {
  sim::MachineConfig m;
  m.n_cores = smt ? 1 : 2;  // siblings on one core (SMT row 1), or alone
  m.smt_per_core = 2;
  m.yield_slack_cycles = slack;
  m.batch_switch_bound = batch;
  tsx::TsxConfig tc;
  tc.spurious_per_begin = 0;
  tc.spurious_per_access = 0;
  sim::Scheduler sched(m);
  tsx::Engine eng(sched, tc);
  tsx::Shared<std::uint64_t>& word = line[0];
  tsx::Shared<std::uint64_t>& lock = line[1];  // the elided lock's word
  word.unsafe_set(1);
  lock.unsafe_set(0);
  StampRun out;
  sched.spawn([&](sim::SimThread& t) {
    out.observed = eng.spin_while(eng.context(t), word,
                                  [](std::uint64_t v) { return v != 0; });
    out.waiter_clock = t.now();
  });
  sched.spawn([&](sim::SimThread& t) {
    tsx::Ctx& ctx = eng.context(t);
    const auto step = [&] {
      out.clocks.push_back(t.now());
      out.versions.push_back(
          eng.line_table().find(support::line_of(&word))->version);
    };
    // Ticks of uneven sizes: each one that passes the waiter's clock
    // replays it against the line as the last action left it.
    const auto run_on = [&] {
      for (const std::uint64_t c : {97, 13, 250, 4, 1000, 61, 333}) {
        eng.compute(ctx, c);
      }
    };
    eng.compute(ctx, delay);  // the waiter parks
    step();
    bool released = false;
    switch (trig) {
      case Trigger::kReleasingStore:
        word.store(ctx, 0);
        released = true;
        break;
      case Trigger::kRmwKeepsWaiting:
        word.fetch_add(ctx, 1);
        break;
      case Trigger::kStoreStripsCopy:
        word.store(ctx, 1);
        break;
      case Trigger::kTxClaimAborts:
        out.results.push_back(eng.run_transaction(ctx, [&] {
          word.store(ctx, 0);
          step();  // the claim
          eng.compute(ctx, in_tx_cycles);
          // XABORT does not poll for a pending remote abort; the load does,
          // so an explicit status means the waiter never aborted us.
          word.load(ctx);
          eng.xabort(ctx, 1);
        }));
        break;
      case Trigger::kTxCommitPublishes:
        out.results.push_back(eng.run_transaction(ctx, [&] {
          word.store(ctx, 0);
          step();  // the claim
          eng.compute(ctx, in_tx_cycles);
        }));
        released = out.results.back() == tsx::kCommitted;
        break;
      case Trigger::kElidedAcquire:
        ctx.set_mode(tsx::ElisionMode::kSpeculative);
        out.results.push_back(lock.xacquire_exchange(ctx, 1) == 0);
        eng.compute(ctx, in_tx_cycles);
        lock.xrelease_store(ctx, 0);
        ctx.set_mode(tsx::ElisionMode::kStandard);
        break;
    }
    step();
    run_on();
    step();
    if (!released) word.store(ctx, 0);
    step();
  });
  sched.run();
  out.elapsed = sched.elapsed_cycles();
  out.switches = sched.switch_count();
  return out;
}

struct StampTotals {
  std::uint64_t switches_on = 0;
  std::uint64_t switches_off = 0;
  int tx_ends_checked[2] = {0, 0};  // claim-aborts, commit-publishes
};

void expect_stamp_case(tsx::SharedArray<std::uint64_t>& line, Trigger trig,
                       bool smt, std::uint64_t slack, std::uint64_t delay,
                       std::uint64_t in_tx, StampTotals& totals) {
  SCOPED_TRACE(::testing::Message()
               << "trigger " << static_cast<int>(trig) << " smt " << smt
               << " slack " << slack << " delay " << delay << " in-tx "
               << in_tx);
  const StampRun on = run_stamp_case(line, trig, smt, true, slack, delay,
                                     in_tx);
  const StampRun off = run_stamp_case(line, trig, smt, false, slack, delay,
                                      in_tx);
  EXPECT_EQ(on.clocks, off.clocks);
  EXPECT_EQ(on.results, off.results);
  EXPECT_EQ(on.waiter_clock, off.waiter_clock);
  EXPECT_EQ(on.observed, 0u);
  EXPECT_EQ(off.observed, 0u);
  EXPECT_EQ(on.elapsed, off.elapsed);
  totals.switches_on += on.switches;
  totals.switches_off += off.switches;

  // The version contract (tsx::LineRecord::version), which both sides
  // share: steps are [parked, (claim,) acted, ran on, released], and every
  // action but the elided acquire bumps.
  const std::vector<std::uint64_t>& v = on.versions;
  ASSERT_EQ(v, off.versions);
  const bool tx = trig == Trigger::kTxClaimAborts ||
                  trig == Trigger::kTxCommitPublishes;
  ASSERT_EQ(v.size(), tx ? 5u : 4u);
  if (trig == Trigger::kElidedAcquire) {
    EXPECT_EQ(on.results, std::vector<unsigned>{1});
    EXPECT_EQ(v[1], v[0]) << "an elided acquire woke the waiter";
  } else {
    EXPECT_GT(v[1], v[0]);
  }
  // A transaction that ends itself (commit or XABORT) bumps again at its
  // publish or its writer-slot release. One that the waiter's load aborted
  // may have been bumped by that abort before the claim step, so it proves
  // nothing here.
  if (tx && (on.results[0] == tsx::kCommitted ||
             (on.results[0] & tsx::status::kExplicit) != 0)) {
    EXPECT_GT(v[2], v[1]);
    ++totals.tx_ends_checked[trig == Trigger::kTxCommitPublishes];
  }
}

TEST(FastPathDifferential, SpinStampMatchesLiteralLoop) {
  tsx::SharedArray<std::uint64_t> line(8);
  StampTotals totals;
  for (const Trigger trig :
       {Trigger::kReleasingStore, Trigger::kRmwKeepsWaiting,
        Trigger::kStoreStripsCopy, Trigger::kTxClaimAborts,
        Trigger::kTxCommitPublishes, Trigger::kElidedAcquire}) {
    for (const bool smt : {false, true}) {
      for (const std::uint64_t slack : {0, 2000}) {
        for (const std::uint64_t delay : {0, 41, 700, 5000}) {
          for (const std::uint64_t in_tx : {0, 500}) {
            expect_stamp_case(line, trig, smt, slack, delay, in_tx, totals);
          }
        }
      }
    }
  }
  // Batching on parked the waiter: its replays are not context switches.
  EXPECT_LT(totals.switches_on, totals.switches_off);
  // Both kinds of transaction end ran unhindered often enough to check.
  EXPECT_GE(totals.tx_ends_checked[0], 8);
  EXPECT_GE(totals.tx_ends_checked[1], 8);
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

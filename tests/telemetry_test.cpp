// Telemetry tests: event-ring mechanics, avalanche detection on synthetic
// traces, and the end-to-end Chapter 3 phenomenon — HLE over a fair lock
// cascades into a mass-abort convoy, while SCM keeps serialization local to
// the conflicting threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "harness/rb_workload.hpp"
#include "support/rng.hpp"
#include "tsx/telemetry.hpp"

namespace elision::tsx {
namespace {

TelemetryEvent ev(std::uint64_t t, int thread, EventKind kind,
                  support::LineId line = 0,
                  AbortCause cause = AbortCause::kNone) {
  TelemetryEvent e;
  e.timestamp = t;
  e.thread = static_cast<std::int16_t>(thread);
  e.kind = kind;
  e.line = line;
  e.cause = cause;
  return e;
}

// A ring's retained events, oldest first, read through its accessor.
std::vector<TelemetryEvent> retained(const EventRing& ring) {
  std::vector<TelemetryEvent> out;
  for (std::size_t i = 0; i < ring.size(); ++i) out.push_back(ring[i]);
  return out;
}

TEST(EventRing, RoundsCapacityUpAndKeepsOrder) {
  EventRing ring(5);  // rounds up to 8
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 6; ++i) {
    ring.push(ev(100 + i, i, EventKind::kTxBegin));
  }
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto snap = retained(ring);
  ASSERT_EQ(snap.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(snap[i].timestamp, 100u + i);
  }
}

TEST(EventRing, WrapKeepsNewestAndCountsDropped) {
  EventRing ring(4);
  for (int i = 0; i < 11; ++i) {
    ring.push(ev(i, 0, EventKind::kTxBegin));
  }
  EXPECT_EQ(ring.recorded(), 11u);
  EXPECT_EQ(ring.dropped(), 7u);
  EXPECT_EQ(ring.size(), 4u);
  const auto snap = retained(ring);
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().timestamp, 7u);  // oldest retained
  EXPECT_EQ(snap.back().timestamp, 10u);
}

TEST(Telemetry, MergesAcrossThreadsInTimestampOrder) {
  Telemetry t(16);
  t.record(ev(30, 1, EventKind::kTxCommit));
  t.record(ev(10, 0, EventKind::kTxBegin));
  t.record(ev(20, 2, EventKind::kTxBegin));
  t.record(ev(20, 0, EventKind::kTxAbort));  // tie: lower thread id first
  const auto merged = t.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].timestamp, 10u);
  EXPECT_EQ(merged[1].timestamp, 20u);
  EXPECT_EQ(merged[1].thread, 0);
  EXPECT_EQ(merged[2].thread, 2);
  EXPECT_EQ(merged[3].timestamp, 30u);
  EXPECT_EQ(t.total_recorded(), 4u);
  EXPECT_EQ(t.total_dropped(), 0u);
}

bool same_event(const TelemetryEvent& a, const TelemetryEvent& b) {
  return a.timestamp == b.timestamp && a.line == b.line &&
         a.thread == b.thread && a.other_thread == b.other_thread &&
         a.kind == b.kind && a.cause == b.cause;
}

// merged() against the definition its header states: the rings' retained
// events concatenated in thread order, then stable-sorted by (timestamp,
// thread). Each event carries a unique sequence number in `line`, so any
// reordering among equal keys shows.
TEST(Telemetry, MergeEqualsStableSortOfConcatenatedRings) {
  struct Case {
    int threads;
    std::size_t capacity;
    int events;
  };
  const Case cases[] = {{1, 8, 0},     {1, 8, 5},     {1, 8, 100},
                        {2, 4, 64},    {8, 16, 400},  {8, 64, 300},
                        {256, 1, 600}, {256, 16, 8000}};
  bool saw_drops = false;
  bool saw_empty_ring = false;
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(::testing::Message() << "threads " << c.threads
                                        << " capacity " << c.capacity
                                        << " events " << c.events << " seed "
                                        << seed);
      support::Xoshiro256 rng(seed);
      Telemetry t(c.capacity);
      // About a quarter of the threads never record; some of those still
      // get a (then empty) ring.
      std::vector<int> active;
      for (int th = 0; th < c.threads; ++th) {
        if (c.threads == 1 || rng.next_below(4) != 0) {
          active.push_back(th);
        } else if (rng.next_below(2) == 0) {
          (void)t.ring(th);
          saw_empty_ring = true;
        }
      }
      if (active.empty()) active.push_back(0);
      // Clocks start together and advance by 0-3 cycles, so timestamps tie
      // within a thread and across threads. Half the events go to the first
      // active thread, so its ring wraps long before the others.
      std::vector<std::uint64_t> clock(c.threads, 0);
      for (int i = 0; i < c.events; ++i) {
        const int th = rng.next_below(2) == 0
                           ? active.front()
                           : active[rng.next_below(active.size())];
        clock[th] += rng.next_below(4);
        t.record(ev(clock[th], th, EventKind::kTxBegin,
                    static_cast<support::LineId>(i + 1)));
      }
      saw_drops = saw_drops || t.total_dropped() > 0;

      const auto got = t.merged();
      std::vector<TelemetryEvent> want;
      for (int th = 0; th < t.thread_count(); ++th) {
        const auto part = retained(t.ring(th));
        want.insert(want.end(), part.begin(), part.end());
      }
      std::stable_sort(want.begin(), want.end(),
                       [](const TelemetryEvent& a, const TelemetryEvent& b) {
                         if (a.timestamp != b.timestamp) {
                           return a.timestamp < b.timestamp;
                         }
                         return a.thread < b.thread;
                       });
      EXPECT_EQ(got.size(), t.total_recorded() - t.total_dropped());
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(same_event(got[i], want[i])) << "at merged index " << i;
      }
    }
  }
  EXPECT_TRUE(saw_drops);
  EXPECT_TRUE(saw_empty_ring);
}

// --- avalanche detector on synthetic traces ---

TEST(AvalancheDetector, FindsCascadeAfterNonSpeculativeAcquire) {
  const support::LineId lock_line = 0xABC0;
  std::vector<TelemetryEvent> trace = {
      ev(1000, 0, EventKind::kLockAcquire, lock_line),
      ev(1100, 1, EventKind::kTxAbort, lock_line, AbortCause::kConflict),
      ev(1200, 2, EventKind::kTxAbort, 0, AbortCause::kPause),
      ev(1300, 3, EventKind::kTxAbort, lock_line, AbortCause::kConflict),
      ev(2000, 0, EventKind::kLockRelease, lock_line),
      ev(2100, 1, EventKind::kLockAcquire, lock_line),
      ev(2900, 1, EventKind::kLockRelease, lock_line),
  };
  AvalancheConfig cfg;
  cfg.window_cycles = 5000;
  cfg.min_victims = 2;
  const auto episodes = detect_avalanches(trace, cfg);
  ASSERT_EQ(episodes.size(), 1u);
  const auto& ep = episodes[0];
  EXPECT_EQ(ep.trigger_thread, 0);
  EXPECT_EQ(ep.start, 1000u);
  EXPECT_EQ(ep.end, 2900u);
  EXPECT_EQ(ep.line, lock_line);
  EXPECT_EQ(ep.aborts, 3u);
  EXPECT_EQ(ep.serialized_ops, 2u);
  ASSERT_EQ(ep.victim_count(), 3);
  EXPECT_EQ(ep.victims, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ep.duration(), 1900u);
}

TEST(AvalancheDetector, BelowMinVictimsIsNotAnAvalanche) {
  // One conflicting pair serializing is expected behaviour, not a cascade.
  std::vector<TelemetryEvent> trace = {
      ev(1000, 0, EventKind::kLockAcquire),
      ev(1100, 1, EventKind::kTxAbort, 0, AbortCause::kConflict),
      ev(1500, 0, EventKind::kLockRelease),
  };
  EXPECT_TRUE(detect_avalanches(trace, {}).empty());
}

TEST(AvalancheDetector, QuietWindowSplitsEpisodes) {
  std::vector<TelemetryEvent> trace = {
      ev(1000, 0, EventKind::kLockAcquire),
      ev(1100, 1, EventKind::kTxAbort, 0, AbortCause::kConflict),
      ev(1200, 2, EventKind::kTxAbort, 0, AbortCause::kConflict),
      // > window_cycles of silence: a fresh episode.
      ev(50000, 3, EventKind::kLockAcquire),
      ev(50100, 4, EventKind::kTxAbort, 0, AbortCause::kConflict),
      ev(50200, 5, EventKind::kTxAbort, 0, AbortCause::kConflict),
  };
  AvalancheConfig cfg;
  cfg.window_cycles = 10000;
  const auto episodes = detect_avalanches(trace, cfg);
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].trigger_thread, 0);
  EXPECT_EQ(episodes[1].trigger_thread, 3);
  EXPECT_EQ(episodes[1].victims, (std::vector<int>{4, 5}));
}

TEST(AvalancheDetector, IgnoresAbortsOnOtherLockLines) {
  std::vector<TelemetryEvent> trace = {
      ev(1000, 0, EventKind::kLockAcquire, 0x100),
      ev(1100, 1, EventKind::kTxAbort, 0x200, AbortCause::kConflict),
      ev(1200, 2, EventKind::kTxAbort, 0x200, AbortCause::kConflict),
      ev(1300, 3, EventKind::kTxAbort, 0x100, AbortCause::kConflict),
  };
  const auto episodes = detect_avalanches(trace, {});
  // Only thread 3 aborted on the trigger's line: below min_victims.
  EXPECT_TRUE(episodes.empty());
}

TEST(AvalancheDetector, ReportsConcurrentEpisodesOnDistinctLockLines) {
  // Two independent locks avalanche in the same window, interleaved. The
  // scan seeded by lock A's acquisition must not swallow lock B's seeding
  // acquisition: both episodes are reported.
  const support::LineId a = 0x100, b = 0x200;
  std::vector<TelemetryEvent> trace = {
      ev(1000, 0, EventKind::kLockAcquire, a),
      ev(1050, 4, EventKind::kLockAcquire, b),  // foreign seed inside A's scan
      ev(1100, 1, EventKind::kTxAbort, a, AbortCause::kConflict),
      ev(1150, 5, EventKind::kTxAbort, b, AbortCause::kConflict),
      ev(1200, 2, EventKind::kTxAbort, a, AbortCause::kConflict),
      ev(1250, 6, EventKind::kTxAbort, b, AbortCause::kConflict),
      ev(1300, 0, EventKind::kLockRelease, a),
      ev(1350, 4, EventKind::kLockRelease, b),
  };
  const auto episodes = detect_avalanches(trace, {});
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].line, a);
  EXPECT_EQ(episodes[0].trigger_thread, 0);
  EXPECT_EQ(episodes[0].victims, (std::vector<int>{1, 2}));
  EXPECT_EQ(episodes[1].line, b);
  EXPECT_EQ(episodes[1].trigger_thread, 4);
  EXPECT_EQ(episodes[1].victims, (std::vector<int>{5, 6}));
}

TEST(AvalancheDetector, ReScanDoesNotDoubleReportAConsumedEpisode) {
  // The re-scan from a foreign-line seed must not re-seed the episode it
  // already consumed: interleaved A/B/A acquisitions yield exactly one
  // episode per lock line.
  const support::LineId a = 0x100, b = 0x200;
  std::vector<TelemetryEvent> trace = {
      ev(1000, 0, EventKind::kLockAcquire, a),
      ev(1020, 4, EventKind::kLockAcquire, b),
      ev(1100, 1, EventKind::kTxAbort, a, AbortCause::kConflict),
      ev(1150, 5, EventKind::kTxAbort, b, AbortCause::kConflict),
      // A second acquisition of A inside both scans: part of A's convoy,
      // not a fresh A episode.
      ev(1200, 2, EventKind::kLockAcquire, a),
      ev(1250, 6, EventKind::kTxAbort, b, AbortCause::kConflict),
      ev(1300, 3, EventKind::kTxAbort, a, AbortCause::kConflict),
  };
  const auto episodes = detect_avalanches(trace, {});
  ASSERT_EQ(episodes.size(), 2u);
  EXPECT_EQ(episodes[0].line, a);
  EXPECT_EQ(episodes[1].line, b);
  EXPECT_EQ(episodes[0].victims, (std::vector<int>{1, 3}));
  EXPECT_EQ(episodes[1].victims, (std::vector<int>{5, 6}));
}

TEST(AvalancheDetector, TracksVictimsAboveThread64) {
  // Victim tracking must not cap at 64 threads (the old uint64_t bitmask).
  std::vector<TelemetryEvent> trace;
  trace.push_back(ev(1000, 10, EventKind::kLockAcquire, 0x100));
  const int kThreads = 200;
  for (int t = 0; t < kThreads; ++t) {
    // Every thread except the trigger aborts twice; the duplicate must not
    // inflate the distinct-victim list.
    if (t == 10) continue;
    trace.push_back(ev(1001 + static_cast<std::uint64_t>(t), t,
                       EventKind::kTxAbort, 0x100, AbortCause::kConflict));
    trace.push_back(ev(1500 + static_cast<std::uint64_t>(t), t,
                       EventKind::kTxAbort, 0x100, AbortCause::kConflict));
  }
  const auto episodes = detect_avalanches(trace, {});
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].victim_count(), kThreads - 1);
  EXPECT_EQ(episodes[0].aborts, 2u * (kThreads - 1));
  // Victims are reported in ascending thread order, including > 63.
  EXPECT_EQ(episodes[0].victims.front(), 0);
  EXPECT_EQ(episodes[0].victims.back(), kThreads - 1);
}

TEST(RejoinLatencies, PairsEnterWithExitPerThread) {
  std::vector<TelemetryEvent> trace = {
      ev(100, 0, EventKind::kAuxEnter),
      ev(150, 1, EventKind::kAuxEnter),
      ev(300, 0, EventKind::kAuxExit),
      ev(500, 1, EventKind::kAuxExit),
      ev(900, 1, EventKind::kAuxExit),  // unmatched: ignored
  };
  const auto lats = rejoin_latencies(trace);
  ASSERT_EQ(lats.size(), 2u);
  EXPECT_EQ(lats[0], 200u);
  EXPECT_EQ(lats[1], 350u);
}

// --- end-to-end: the Chapter 3 avalanche on a real workload ---

harness::RunStats run_rb(locks::ElisionPolicy policy, bool telemetry,
                         Telemetry* sink = nullptr,
                         locks::AdaptiveController* adaptive = nullptr) {
  harness::RbPoint p;
  p.size = 64;
  p.update_pct = 20;
  p.threads = 8;
  p.scheme = policy;
  p.lock = locks::LockId::kMcs;
  p.duration_sec = 0.001;
  p.telemetry = telemetry;
  p.telemetry_sink = sink;
  p.adaptive_out = adaptive;
  return harness::run_rb_point_once(p);
}

int max_victims(const harness::RunStats& stats) {
  int m = 0;
  for (const auto& ep : stats.episodes) {
    if (ep.victim_count() > m) m = ep.victim_count();
  }
  return m;
}

TEST(AvalancheIntegration, HleOverMcsCascadesScmContainsIt) {
  // Avalanche episodes are read off the event rings.
  const auto hle = run_rb(locks::ElisionPolicy::hle(), true);
  const auto scm = run_rb(locks::ElisionPolicy::hle_scm(), true);

  // HLE over a fair lock: one abort convoys the whole thread set (Fig 3.1).
  ASSERT_FALSE(hle.episodes.empty());
  EXPECT_GE(max_victims(hle), 5);
  EXPECT_GT(hle.nonspec_fraction(), 0.5);

  // SCM serializes only the threads that actually conflicted: strictly
  // fewer victims per episode, and speculation continues throughout.
  EXPECT_LT(max_victims(scm), max_victims(hle));
  EXPECT_LT(scm.nonspec_fraction(), 0.1);
  EXPECT_GT(scm.rejoin_hist.samples(), 0u);
  EXPECT_GT(scm.throughput(), hle.throughput());
}

TEST(AvalancheIntegration, TelemetryDoesNotPerturbVirtualTime) {
  // Telemetry records host-side only; the simulated run must be bit-for-bit
  // identical with it on or off.
  // The caller-owned observation sinks must not perturb it either.
  Telemetry sink;
  locks::AdaptiveController adaptive;
  const auto off = run_rb(locks::ElisionPolicy::hle(), false);
  const auto on =
      run_rb(locks::ElisionPolicy::hle(), true, &sink, &adaptive);
  EXPECT_EQ(off.ops, on.ops);
  EXPECT_EQ(off.spec_ops, on.spec_ops);
  EXPECT_EQ(off.attempts, on.attempts);
  EXPECT_EQ(off.elapsed_cycles, on.elapsed_cycles);
  EXPECT_EQ(off.tx.aborts, on.tx.aborts);
  EXPECT_EQ(off.telemetry_events, 0u);
  EXPECT_GT(on.telemetry_events, 0u);
  EXPECT_EQ(sink.total_recorded(), on.telemetry_events);
}

}  // namespace
}  // namespace elision::tsx

// Deterministic unit tests of the adaptive mode controller
// (locks/adaptive.hpp): the controller is engine-free, so these drive it
// with synthetic per-region feeds and check the migration history exactly.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/suite.hpp"
#include "locks/adaptive.hpp"
#include "locks/policy.hpp"

namespace elision::locks {
namespace {

AdaptiveParams params(int window, int up, int down, int dwell) {
  AdaptiveParams p;
  p.window = window;
  p.up_pct = up;
  p.down_pct = down;
  p.dwell = dwell;
  return p;
}

// Feeds `regions` completed regions, each taking `attempts` executions.
// Timestamps advance by 10 cycles per region from `start`.
std::uint64_t feed(AdaptiveController& c, int regions, int attempts,
                   std::uint64_t start) {
  std::uint64_t now = start;
  for (int i = 0; i < regions; ++i) {
    now += 10;
    c.on_region(now, attempts == 1, attempts);
  }
  return now;
}

TEST(AdaptiveController, StartsAtHleAndStaysUnderLowAbortRate) {
  AdaptiveController c(params(8, 60, 15, 2));
  feed(c, 100, /*attempts=*/1, 0);
  EXPECT_EQ(c.mode(), AdaptiveMode::kHle);
  EXPECT_EQ(c.total_migrations(), 0u);
  EXPECT_EQ(c.windows_closed(), 12u);  // 100 regions / window of 8
}

TEST(AdaptiveController, AbortRateStepCausesExactlyOneMigrationAfterDwell) {
  // A clean step from 0% to 50% abort rate (2 attempts per region) with
  // up=40: the first full window at the new rate escalates exactly once.
  // The migration "works" — the post-migration feed drops to a mid-band
  // 25% rate (conflict management absorbing the conflicts), so no further
  // migration may fire, no matter how long the workload runs.
  AdaptiveController c(params(8, 40, 10, 2));
  std::uint64_t now = feed(c, 32, 1, 0);  // 4 quiet windows, no migration
  ASSERT_EQ(c.total_migrations(), 0u);
  // The step: full windows at 50% until the controller reacts. It must
  // react at the first window boundary, after exactly one window of storm.
  while (c.total_migrations() == 0) now = feed(c, 8, 2, now);
  EXPECT_EQ(c.windows_closed(), 5u);
  // Post-migration: alternate 1- and 2-attempt regions (33% rate).
  for (int i = 0; i < 100; ++i) {
    now = feed(c, 1, i % 2 == 0 ? 1 : 2, now);
  }
  EXPECT_EQ(c.mode(), AdaptiveMode::kHleScm);
  EXPECT_EQ(c.total_migrations(), 1u);
  ASSERT_EQ(c.decisions().size(), 1u);
  const AdaptiveDecision& d = c.decisions()[0];
  EXPECT_EQ(d.from, AdaptiveMode::kHle);
  EXPECT_EQ(d.to, AdaptiveMode::kHleScm);
  EXPECT_EQ(d.abort_rate_pct, 50);
  EXPECT_STREQ(d.reason, "escalate");
}

TEST(AdaptiveController, DwellDelaysTheSecondMigration) {
  // Sustained 80% abort rate (5 attempts per region) climbs the whole
  // ladder, but each step must wait out the dwell: migrations land on
  // windows 1, 4, 7 (dwell=2 full windows between steps).
  AdaptiveController c(params(4, 60, 15, 2));
  feed(c, 4 * 7, 5, 0);
  ASSERT_EQ(c.decisions().size(), 3u);
  EXPECT_EQ(c.decisions()[0].to, AdaptiveMode::kHleScm);
  EXPECT_EQ(c.decisions()[1].to, AdaptiveMode::kHleGroupedScm);
  EXPECT_EQ(c.decisions()[2].to, AdaptiveMode::kStandard);
  EXPECT_EQ(c.mode(), AdaptiveMode::kStandard);
  // 7 windows closed: migrations after windows 1, 4, 7.
  EXPECT_EQ(c.windows_closed(), 7u);
}

TEST(AdaptiveController, DeEscalatesWhenTheRateDrops) {
  AdaptiveController c(params(4, 60, 15, 0));
  feed(c, 4, 5, 0);  // 80%: hle -> hle-scm
  ASSERT_EQ(c.mode(), AdaptiveMode::kHleScm);
  feed(c, 8, 1, 1000);  // 0%: back down to hle
  EXPECT_EQ(c.mode(), AdaptiveMode::kHle);
  ASSERT_EQ(c.decisions().size(), 2u);
  EXPECT_STREQ(c.decisions()[1].reason, "de-escalate");
  // At the floor, a low rate causes no further migration.
  feed(c, 40, 1, 2000);
  EXPECT_EQ(c.total_migrations(), 2u);
}

TEST(AdaptiveController, MidBandRateMigratesNothing) {
  // 33% (1.5 attempts/region avg) sits between down=15 and up=60.
  AdaptiveController c(params(8, 60, 15, 2));
  for (int i = 0; i < 100; ++i) {
    c.on_region(10 * static_cast<std::uint64_t>(i) + 10, i % 2 == 0,
                i % 2 == 0 ? 1 : 2);
  }
  EXPECT_EQ(c.mode(), AdaptiveMode::kHle);
  EXPECT_EQ(c.total_migrations(), 0u);
}

TEST(AdaptiveController, LeavingStandardIsAProbeWithExponentialBackoff) {
  // Climb to kStandard under a storm, then keep the storm raging: each
  // probe out of kStandard fails (the probed window still aborts), backing
  // off geometrically.
  AdaptiveController c(params(4, 60, 15, 1));
  std::uint64_t now = feed(c, 4 * 5, 5, 0);
  ASSERT_EQ(c.mode(), AdaptiveMode::kStandard);
  const auto migrations_at_top = c.total_migrations();

  // In kStandard the controller sees attempts=1 (no speculation), so its
  // windowed rate is 0 and every hold expiry probes downward.
  int probes = 0;
  int probe_failures = 0;
  for (int w = 0; w < 200; ++w) {
    now = feed(c, 4, c.mode() == AdaptiveMode::kStandard ? 1 : 5, now);
    const auto& ds = c.decisions();
    if (!ds.empty() && ds.back().at > now - 40) {
      if (ds.back().reason == std::string("probe")) ++probes;
      if (ds.back().reason == std::string("probe-failed")) ++probe_failures;
    }
  }
  EXPECT_GT(probes, 0);
  EXPECT_EQ(probes, probe_failures);  // the storm never relents
  EXPECT_EQ(c.mode(), AdaptiveMode::kStandard);
  EXPECT_GT(c.probe_backoff(), 1);
  // Backoff makes probes rare: far fewer than one per hold of 1 window.
  EXPECT_LT(c.total_migrations() - migrations_at_top, 2u * 200u / 4u);
}

TEST(AdaptiveController, SurvivingProbeResetsBackoffAndDescends) {
  AdaptiveController c(params(4, 60, 15, 1));
  std::uint64_t now = feed(c, 4 * 5, 5, 0);
  ASSERT_EQ(c.mode(), AdaptiveMode::kStandard);
  // Fail one probe to raise the backoff.
  while (c.mode() == AdaptiveMode::kStandard) now = feed(c, 4, 1, now);
  ASSERT_EQ(c.mode(), AdaptiveMode::kHleGroupedScm);
  now = feed(c, 4, 5, now);  // probed window aborts: probe fails
  ASSERT_EQ(c.mode(), AdaptiveMode::kStandard);
  EXPECT_GT(c.probe_backoff(), 1);
  // Now let the storm pass: the next probe survives, resets the backoff,
  // and the controller walks the ladder back down to hle.
  for (int i = 0; i < 100 && c.mode() != AdaptiveMode::kHle; ++i) {
    now = feed(c, 4, 1, now);
  }
  EXPECT_EQ(c.mode(), AdaptiveMode::kHle);
  EXPECT_EQ(c.probe_backoff(), 1);
}

TEST(AdaptiveController, DecisionTraceIsBoundedAndCountsDrops) {
  // dwell=0 and an alternating storm/calm feed force a migration nearly
  // every window; the stored trace must cap at kMaxStoredDecisions.
  AdaptiveController c(params(1, 60, 15, 0));
  std::uint64_t now = 0;
  for (int i = 0; i < 4000; ++i) {
    now = feed(c, 1, i % 2 == 0 ? 5 : 1, now);
  }
  EXPECT_EQ(c.decisions().size(), AdaptiveController::kMaxStoredDecisions);
  EXPECT_GT(c.decisions_dropped(), 0u);
  EXPECT_EQ(c.total_migrations(),
            c.decisions().size() + c.decisions_dropped());
}

TEST(AdaptiveController, ClampsDegenerateParams) {
  AdaptiveController c(params(0, 60, 15, -3));
  // window clamps to 1: every region closes a window; dwell clamps to 0.
  feed(c, 1, 5, 0);
  EXPECT_EQ(c.windows_closed(), 1u);
  EXPECT_EQ(c.mode(), AdaptiveMode::kHleScm);
}

TEST(AdaptiveController, AttemptsBelowOneAreTreatedAsOne) {
  AdaptiveController c(params(4, 60, 15, 0));
  for (int i = 0; i < 8; ++i) {
    c.on_region(10 * static_cast<std::uint64_t>(i) + 10, true, 0);
  }
  EXPECT_EQ(c.mode(), AdaptiveMode::kHle);
  EXPECT_EQ(c.total_migrations(), 0u);
}

// --- the phase workload the suite's adaptive invariants run on ---

TEST(PhaseWorkload, StormPhaseSeesMoreAbortsThanCalmPhases) {
  // Sanity of the phase plumbing itself: the write storm must be visibly
  // stormier than the read-mostly phases for the adaptive headline to mean
  // anything. Compare per-phase ops of the standard scheme (no speculation,
  // pure serialization) against plain HLE: in calm phases HLE wins big;
  // in the storm the gap must shrink.
  harness::PhasePoint hle;
  hle.phase_sec = 0.0005;
  hle.scheme = ElisionPolicy::hle();
  harness::PhasePoint std_p = hle;
  std_p.scheme = ElisionPolicy::standard();
  const auto h = harness::phase_ops_of(harness::run_point(hle));
  const auto s = harness::phase_ops_of(harness::run_point(std_p));
  ASSERT_GT(s[0], 0u);
  ASSERT_GT(s[1], 0u);
  const double calm_gap = static_cast<double>(h[0]) / s[0];
  const double storm_gap = static_cast<double>(h[1]) / s[1];
  EXPECT_GT(calm_gap, storm_gap);
}

}  // namespace
}  // namespace elision::locks

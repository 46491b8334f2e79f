// Bench-suite tests: curated point list, canonical JSON round-trip, the
// regression gate (including a planted regression and coverage loss), the
// paper-qualitative invariant checks, the seed-merge regression test for
// run_point's timeline aggregation, and run_suite's point-level fan-out.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "harness/micro_point.hpp"
#include "harness/rb_workload.hpp"
#include "harness/runner.hpp"
#include "harness/suite.hpp"
#include "support/json.hpp"

namespace elision::harness {
namespace {

TEST(SuitePoints, SmokeIsNonTrivialSubsetOfFull) {
  const auto smoke = suite_points_for(SuiteTier::kSmoke);
  const auto full = suite_points_for(SuiteTier::kFull);
  EXPECT_GE(smoke.size(), 8u);
  EXPECT_GT(full.size(), smoke.size());
  std::set<std::string> full_ids;
  for (const auto& p : full) full_ids.insert(p.id);
  // Ids are unique and every smoke point is in the full tier.
  EXPECT_EQ(full_ids.size(), full.size());
  for (const auto& p : smoke) {
    EXPECT_EQ(p.tier, SuiteTier::kSmoke) << p.id;
    EXPECT_TRUE(full_ids.count(p.id)) << p.id;
  }
}

TEST(SuitePoints, MicroEngineCanariesAreRegisteredInSmoke) {
  // Both simulator-speed canaries: the paper's 8-hyperthread machine and
  // the big 64-thread / 32-core machine behind the O(log N) ready queue.
  const auto smoke = suite_points_for(SuiteTier::kSmoke);
  const SuitePoint* t8 = nullptr;
  const SuitePoint* t64 = nullptr;
  int micros = 0;
  for (const auto& sp : smoke) {
    if (sp.kind() != PointKind::kMicro) continue;
    ++micros;
    EXPECT_STREQ(point_kind_name(sp.kind()), "micro");
    if (sp.id == "micro-engine-rtm-t8") t8 = &sp;
    if (sp.id == "micro-engine-rtm-t64") t64 = &sp;
  }
  EXPECT_EQ(micros, 2);
  ASSERT_NE(t8, nullptr);
  ASSERT_NE(t64, nullptr);
  // The t8 canary keeps the seed's machine shape and op count (no overrides
  // emitted, so its baseline line is byte-identical to the
  // pre-ready-queue one).
  const auto& m8 = std::get<MicroPoint>(t8->workload);
  EXPECT_EQ(m8.n_cores, 0u);
  EXPECT_EQ(m8.ops_per_thread, MicroPoint{}.ops_per_thread);
  // The t64 canary runs the 32-core / 2-SMT big machine.
  const auto& m64 = std::get<MicroPoint>(t64->workload);
  EXPECT_EQ(m64.threads, 64);
  EXPECT_EQ(m64.n_cores, 32u);
  EXPECT_EQ(m64.smt_per_core, 2u);
}

TEST(SuitePoints, ListColumnsComeFromTheFieldTables) {
  auto find = [](const char* id) {
    for (const auto& sp : suite_points()) {
      if (sp.id == id) return sp;
    }
    ADD_FAILURE() << id;
    return SuitePoint{};
  };
  const SuitePoint micro = find("micro-engine-rtm-t64");
  EXPECT_EQ(point_column(micro, "lock"), "TTAS");
  EXPECT_EQ(point_column(micro, "scheme"), "standard");
  EXPECT_EQ(point_column(micro, "size"), "16384");
  const SuitePoint kv = find("kv-sh8-k8192-z99-u30-t8-hle");
  EXPECT_EQ(point_column(kv, "lock"), "-");  // not a kv field
  EXPECT_EQ(point_column(kv, "upd%"), "20/5/5");
  EXPECT_EQ(point_column(kv, "size"), "8192");
  const SuitePoint ph = find("ph-s12-u10-100-t16-ttas-hle-scm");
  EXPECT_EQ(point_column(ph, "upd%"), "10/100");
  EXPECT_EQ(point_column(ph, "scheme"), "hle-scm");
  EXPECT_EQ(point_column(ph, "thr"), "16");
  EXPECT_TRUE(point_telemetry(find("kv-sh8-k8192-z120-u50-t8-hle")));
  EXPECT_FALSE(point_telemetry(micro));
  EXPECT_EQ(point_id(find("rb-s64-u20-t128-ttas-hle-scm-m64x2").workload),
            "rb-s64-u20-t128-ttas-hle-scm-m64x2");
}

// The micro point is the simulator-speed canary: its simulated metrics must
// be bit-identical run to run (and, by the address-alignment contract in
// micro_point.cpp, process to process) or sim_ops_per_sec would conflate
// workload drift with host speed.
TEST(MicroPointRun, SimulatedMetricsAreDeterministic) {
  MicroPoint p;
  p.ops_per_thread = 2000;
  const RunStats a = run_micro_point(p);
  const RunStats b = run_micro_point(p);
  EXPECT_GT(a.ops, 0u);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.spec_ops, b.spec_ops);
  EXPECT_EQ(a.nonspec_ops, b.nonspec_ops);
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles);
  EXPECT_EQ(a.tx.commits, b.tx.commits);
  EXPECT_EQ(a.tx.aborts, b.tx.aborts);
  // Every op completed one way or the other.
  EXPECT_EQ(a.spec_ops + a.nonspec_ops, a.ops);
  // The shared hot line keeps conflict detection exercised.
  EXPECT_GT(a.tx.aborts, 0u);
}

// The timelines of all seed runs merge slot-wise, so a multi-seed Fig 3.3
// point averages real slots, not zeros.
TEST(RbWorkload, TimelineMergedAcrossSeeds) {
  RbPoint p;
  p.size = 64;
  p.threads = 4;
  p.duration_sec = 0.0004;
  p.seeds = 2;
  p.scheme = locks::ElisionPolicy::hle();
  p.timeline_slot_cycles = 340000;  // ~4 slots per seed run
  const RunStats merged = run_point(p);
  ASSERT_GT(merged.ops, 0u);
  ASSERT_FALSE(merged.timeline.empty());
  std::uint64_t timeline_ops = 0;
  std::uint64_t timeline_nonspec = 0;
  for (const auto& slot : merged.timeline) {
    timeline_ops += slot.ops;
    timeline_nonspec += slot.nonspec_ops;
  }
  // Every completed op of every seed lands in some slot.
  EXPECT_EQ(timeline_ops, merged.ops);
  EXPECT_EQ(timeline_nonspec, merged.nonspec_ops);

  // And the merge really covers both seeds: a single-seed run has
  // strictly fewer ops.
  RbPoint single = p;
  single.seeds = 1;
  const RunStats one = run_point(single);
  EXPECT_GT(merged.ops, one.ops);
}

TEST(RbWorkload, AccumulateChecksGhzAndMergesCounters) {
  RunStats a;
  a.ops = 10;
  a.elapsed_cycles = 1000;
  a.ghz = 2.0;
  a.timeline.resize(2);
  a.timeline[1].ops = 4;
  RunStats total;
  total.accumulate(a);
  EXPECT_DOUBLE_EQ(total.ghz, 2.0);  // taken from the first run, not 3.4
  total.accumulate(a);
  EXPECT_EQ(total.ops, 20u);
  ASSERT_EQ(total.timeline.size(), 2u);
  EXPECT_EQ(total.timeline[1].ops, 8u);

  RunStats other_machine;
  other_machine.ops = 1;
  other_machine.elapsed_cycles = 10;
  other_machine.ghz = 3.4;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(total.accumulate(other_machine), "different MachineConfig");
}

SuiteResult tiny_result() {
  SuiteResult r;
  r.tier = SuiteTier::kSmoke;
  r.duration_scale = 1.0;
  r.n_cores = 4;
  r.smt_per_core = 2;
  r.ghz = 3.4;
  int i = 0;
  for (const auto& sp : suite_points_for(SuiteTier::kSmoke)) {
    PointRecord rec;
    rec.def = sp;
    rec.metrics.throughput_ops_per_sec = 1e7 + 1e6 * i;
    rec.metrics.spec_fraction = 0.9;
    rec.metrics.nonspec_fraction = 0.1;
    rec.metrics.attempts_per_op = 1.25;
    rec.metrics.ops = 1000 + static_cast<std::uint64_t>(i);
    rec.metrics.attempts = 1250;
    rec.metrics.elapsed_cycles = 123456;
    rec.metrics.tx_begins = 1200;
    rec.metrics.tx_commits = 900;
    rec.metrics.tx_aborts = 300;
    rec.metrics.aborts_by_cause.assign(
        static_cast<std::size_t>(tsx::AbortCause::kCauseCount), 0);
    rec.metrics.aborts_by_cause[static_cast<std::size_t>(
        tsx::AbortCause::kConflict)] = 7;
    rec.metrics.avalanche_episodes = 2;
    rec.metrics.avalanche_victims = 9;
    r.points.push_back(std::move(rec));
    ++i;
  }
  return r;
}

std::string to_json_string(const SuiteResult& r) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  write_results_json(r, f);
  std::fclose(f);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

TEST(SuiteJson, ResultsRoundTrip) {
  const SuiteResult orig = tiny_result();
  const std::string text = to_json_string(orig);

  const auto doc = support::json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  const auto parsed = parse_results_json(*doc);
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->tier, orig.tier);
  EXPECT_DOUBLE_EQ(parsed->duration_scale, orig.duration_scale);
  EXPECT_EQ(parsed->n_cores, orig.n_cores);
  EXPECT_DOUBLE_EQ(parsed->ghz, orig.ghz);
  ASSERT_EQ(parsed->points.size(), orig.points.size());
  for (std::size_t i = 0; i < orig.points.size(); ++i) {
    const auto& a = orig.points[i];
    const auto& b = parsed->points[i];
    EXPECT_EQ(b.def.id, a.def.id);  // insertion order preserved
    EXPECT_EQ(b.def.tier, a.def.tier);
    EXPECT_NEAR(b.metrics.throughput_ops_per_sec,
                a.metrics.throughput_ops_per_sec, 1.0);
    EXPECT_NEAR(b.metrics.nonspec_fraction, a.metrics.nonspec_fraction, 1e-6);
    EXPECT_EQ(b.metrics.ops, a.metrics.ops);
    EXPECT_EQ(b.metrics.aborts_by_cause[static_cast<std::size_t>(
                  tsx::AbortCause::kConflict)],
              7u);
    EXPECT_EQ(b.metrics.avalanche_episodes, 2u);
  }
}

TEST(SuiteJson, HostMetadataAndSimSpeedRoundTrip) {
  SuiteResult orig = tiny_result();
  orig.host_cores = 16;
  orig.jobs = 4;
  orig.host_threads = 3;
  orig.total_wall_ms = 1234.5;
  orig.points[0].metrics.sim_ops_per_sec = 5.5e6;
  orig.points[0].metrics.wall_ms = 42.125;

  const auto doc = support::json::parse(to_json_string(orig));
  ASSERT_TRUE(doc.has_value());
  const auto parsed = parse_results_json(*doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->host_cores, 16u);
  EXPECT_EQ(parsed->jobs, 4);
  EXPECT_EQ(parsed->host_threads, 3);
  EXPECT_NEAR(parsed->total_wall_ms, 1234.5, 1e-3);
  EXPECT_NEAR(parsed->points[0].metrics.sim_ops_per_sec, 5.5e6, 1.0);
  EXPECT_NEAR(parsed->points[0].metrics.wall_ms, 42.125, 1e-3);
  // Point kinds survive the round trip.
  for (std::size_t i = 0; i < orig.points.size(); ++i) {
    EXPECT_EQ(parsed->points[i].def.kind(), orig.points[i].def.kind())
        << orig.points[i].def.id;
  }
}

// Every full-tier point — all five kinds, the t64 canary's overrides and
// the big-machine shapes — with every optional metrics object present,
// written, parsed and written again must come back as the same text. Seeds
// and durations are moved off their defaults first: a parser that dropped
// one of them would otherwise still reproduce the default.
TEST(SuiteJson, WriteParseWriteIsByteIdentical) {
  SuiteResult orig = tiny_result();
  orig.tier = SuiteTier::kFull;
  orig.points.clear();
  std::uint64_t i = 0;
  for (const auto& sp : suite_points_for(SuiteTier::kFull)) {
    PointRecord rec = tiny_result().points[0];
    rec.def = sp;
    std::visit(
        [&](auto& p) {
          p.seed += i;
          if constexpr (requires { p.duration_sec; }) p.duration_sec *= 2;
        },
        rec.def.workload);
    rec.metrics.ops += i++;
    rec.metrics.phase_ops = {i, 2 * i, 3 * i};
    rec.metrics.latency = {{"get", 10, 1, 2, 3, 4}, {"put", 5, 6, 7, 8, 9}};
    rec.metrics.fp_owned_hits = i;
    rec.metrics.fp_bound_recomputes = 7;
    rec.metrics.sim_ops_per_sec = 1234.5;
    rec.metrics.wall_ms = 6.789;
    orig.points.push_back(std::move(rec));
  }
  std::set<PointKind> kinds;
  for (const auto& p : orig.points) kinds.insert(p.def.kind());
  ASSERT_EQ(kinds.size(), 5u);

  const std::string text = to_json_string(orig);
  const auto doc = support::json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  const auto parsed = parse_results_json(*doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(to_json_string(*parsed), text);
}

// The committed baseline parses and rewrites byte for byte, and so does the
// registry's own definition of every point carrying the baseline's metrics:
// the field tables reproduce every historical point line.
TEST(SuiteJson, CommittedBaselineRewritesByteIdentical) {
  std::string committed;
  {
    std::FILE* f = std::fopen(ELISION_BASELINE_JSON, "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
      committed.append(buf, n);
    }
    std::fclose(f);
  }
  const auto base = load_results_file(ELISION_BASELINE_JSON);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(to_json_string(*base), committed);

  const auto full = suite_points_for(SuiteTier::kFull);
  ASSERT_EQ(full.size(), base->points.size());
  SuiteResult regen = *base;
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].id, base->points[i].def.id);
    regen.points[i].def = full[i];
  }
  EXPECT_EQ(to_json_string(regen), committed);
}

TEST(SuiteJson, RejectsMalformedPointFields) {
  // The first point carries every optional metrics group too.
  SuiteResult r = tiny_result();
  PointMetrics& m = r.points[0].metrics;
  m.phase_ops = {5, 6, 7};
  m.latency = {{"get", 10, 1, 2, 3, 4}};
  m.fp_owned_hits = 3;
  const std::string good = to_json_string(r);
  ASSERT_TRUE(parse_results_json(*support::json::parse(good)).has_value());
  const std::pair<const char*, const char*> corruptions[] = {
      {"\"kind\":\"rb\"", "\"kind\":\"rbx\""},
      {"\"lock\":\"MCS\"", "\"lock\":\"MCSX\""},
      {"\"lock\":\"shared-ttas\"", "\"lock\":\"shared-mcsx\""},
      {"\"scheme\":\"hle-scm\"", "\"scheme\":\"hle-scmx\""},
      {"\"tier\":\"smoke\",\"figure\"", "\"tier\":\"smokey\",\"figure\""},
      {"\"seeds\":2", "\"seeds\":-2"},
      {"\"telemetry\":true", "\"telemetry\":1"},
      // A metrics key the writer always emits may be neither missing (it
      // must not read as a zero the gate skips) nor of the wrong type.
      {"\"throughput_ops_per_sec\"", "\"throughput_ops_per_s\""},
      {"\"ops\":1000,", "\"ops\":\"1000\","},
      {"\"commits\":", "\"commit\":"},
      {"\"conflict\":7", "\"conflict\":-7"},
      {"\"avalanche_episodes\":2", "\"avalanche_episodes\":true"},
      {"\"wall_ms\"", "\"wall\""},
      {"\"aborts_by_cause\"", "\"aborts_by_causes\""},
      // The optional groups may be absent, but are well-formed when present.
      {"\"phase_ops\":[5,", "\"phase_ops\":[5.5,"},
      {"\"p999_cycles\"", "\"p999_cyc\""},
      {"\"owned_hits\":3", "\"owned_hits\":-3"},
      // Run metadata may be absent key by key, but never of the wrong
      // type: the gate's scale and machine checks read these.
      {"\"duration_scale\":1,", "\"duration_scale\":\"x\","},
      {"\"ghz\":3.4", "\"ghz\":\"3.4\""},
      {"\"n_cores\":4,", "\"n_cores\":4.5,"},
      {"\"jobs\":1,", "\"jobs\":-1,"},
      {"\"host\":{", "\"host\":[],\"x\":{"},
  };
  for (const auto& [from, to] : corruptions) {
    std::string bad = good;
    const auto at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, std::strlen(from), to);
    const auto doc = support::json::parse(bad);
    ASSERT_TRUE(doc.has_value()) << to;
    EXPECT_FALSE(parse_results_json(*doc).has_value()) << to;
  }
}

TEST(SuiteJson, HostFieldsDefaultWhenAbsent) {
  // Documents written before host_threads existed must still parse, with
  // the sequential default, and so must documents that still carry the
  // retired jobs_mode key (unknown keys are ignored).
  SuiteResult orig = tiny_result();
  orig.host_threads = 3;
  std::string json = to_json_string(orig);
  const std::string key = "\"host_threads\":3,";
  const auto at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, key.size(), "\"jobs_mode\":\"fork\",");
  const auto doc = support::json::parse(json);
  ASSERT_TRUE(doc.has_value());
  const auto parsed = parse_results_json(*doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->host_threads, 1);
  EXPECT_EQ(parsed->jobs, orig.jobs);
}

TEST(SuiteJson, RejectsWrongSchemaVersion) {
  const auto doc =
      support::json::parse("{\"schema_version\":999,\"points\":[]}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(parse_results_json(*doc).has_value());
}

TEST(SuiteGate, PassesOnIdenticalResults) {
  const SuiteResult base = tiny_result();
  const GateReport report = compare_to_baseline(base, base);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.improvements.empty());
}

TEST(SuiteGate, DetectsPlantedThroughputRegression) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points[0].metrics.throughput_ops_per_sec *= 0.5;  // planted: -50%
  const GateReport report = compare_to_baseline(cur, base);
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0].point_id, base.points[0].def.id);
  EXPECT_EQ(report.regressions[0].metric, "throughput_ops_per_sec");
}

TEST(SuiteGate, DetectsAttemptsAndFallbackRegressions) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points[1].metrics.attempts_per_op *= 1.5;
  cur.points[2].metrics.nonspec_fraction += 0.2;
  const GateReport report = compare_to_baseline(cur, base);
  ASSERT_EQ(report.regressions.size(), 2u);
  EXPECT_EQ(report.regressions[0].metric, "attempts_per_op");
  EXPECT_EQ(report.regressions[1].metric, "nonspec_fraction");
}

TEST(SuiteGate, DetectsPlantedSimulatorSlowdown) {
  SuiteResult base = tiny_result();
  for (auto& p : base.points) p.metrics.sim_ops_per_sec = 1e6;
  SuiteResult cur = base;
  cur.points[0].metrics.sim_ops_per_sec *= 0.2;  // past the default 75% slack
  const GateReport report = compare_to_baseline(cur, base);
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0].point_id, base.points[0].def.id);
  EXPECT_EQ(report.regressions[0].metric, "sim_ops_per_sec");
}

TEST(SuiteGate, SimSpeedSkippedWithoutBaselineDataOrWhenDisabled) {
  // Baselines that predate sim_ops_per_sec carry 0: never a regression.
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points[0].metrics.sim_ops_per_sec = 1e6;
  EXPECT_TRUE(compare_to_baseline(cur, base).ok());

  // simops_rel >= 1.0 disables the check even with data on both sides.
  SuiteResult base2 = base;
  for (auto& p : base2.points) p.metrics.sim_ops_per_sec = 1e6;
  SuiteResult cur2 = base2;
  cur2.points[0].metrics.sim_ops_per_sec = 1.0;  // 6 orders slower
  EXPECT_TRUE(compare_to_baseline(cur2, base2, 1.0).ok());
}

// Every gated metric at its bound: just past it in the worse direction is a
// regression, just inside it passes, and past it in the better direction is
// an improvement (sim_ops_per_sec, a host speed, reports none).
TEST(SuiteGate, EachGatedMetricHasItsBound) {
  struct Case {
    const char* metric;
    double PointMetrics::*value;
    double base, worse, inside, better;
    bool improves;
  };
  const Case cases[] = {
      // 10% relative, higher is better.
      {"throughput_ops_per_sec", &PointMetrics::throughput_ops_per_sec, 1e7,
       0.899e7, 0.901e7, 1.101e7, true},
      // 15% relative, lower is better.
      {"attempts_per_op", &PointMetrics::attempts_per_op, 2.0, 2.302, 2.298,
       1.698, true},
      // 0.08 absolute, lower is better.
      {"nonspec_fraction", &PointMetrics::nonspec_fraction, 0.5, 0.581, 0.579,
       0.419, true},
      // 75% relative by default, higher is better.
      {"sim_ops_per_sec", &PointMetrics::sim_ops_per_sec, 1e6, 0.249e6,
       0.251e6, 1e7, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.metric);
    SuiteResult base = tiny_result();
    base.points[0].metrics.*c.value = c.base;
    if (c.value != &PointMetrics::sim_ops_per_sec) {
      base.points[0].metrics.sim_ops_per_sec = 1e6;
    }
    auto gate = [&](double current) {
      SuiteResult cur = base;
      cur.points[0].metrics.*c.value = current;
      return compare_to_baseline(cur, base);
    };
    const GateReport worse = gate(c.worse);
    ASSERT_EQ(worse.regressions.size(), 1u);
    EXPECT_EQ(worse.regressions[0].point_id, base.points[0].def.id);
    EXPECT_EQ(worse.regressions[0].metric, c.metric);
    EXPECT_DOUBLE_EQ(worse.regressions[0].baseline, c.base);
    EXPECT_DOUBLE_EQ(worse.regressions[0].current, c.worse);
    EXPECT_TRUE(worse.improvements.empty());

    const GateReport inside = gate(c.inside);
    EXPECT_TRUE(inside.ok());
    EXPECT_TRUE(inside.improvements.empty());

    const GateReport better = gate(c.better);
    EXPECT_TRUE(better.ok());
    if (c.improves) {
      ASSERT_EQ(better.improvements.size(), 1u);
      EXPECT_EQ(better.improvements[0].metric, c.metric);
      EXPECT_DOUBLE_EQ(better.improvements[0].current, c.better);
    } else {
      EXPECT_TRUE(better.improvements.empty());
    }
  }
}

// A relative bound needs baseline data: a baseline of 0 skips throughput,
// attempts and sim-speed whatever the current value.
TEST(SuiteGate, ZeroBaselineSkipsRelativeMetrics) {
  SuiteResult base = tiny_result();
  PointMetrics& bm = base.points[0].metrics;
  bm.throughput_ops_per_sec = 0;
  bm.attempts_per_op = 0;
  bm.sim_ops_per_sec = 0;
  SuiteResult cur = base;
  PointMetrics& cm = cur.points[0].metrics;
  for (double v : {1e-9, 1e9}) {
    cm.throughput_ops_per_sec = v;
    cm.attempts_per_op = v;
    cm.sim_ops_per_sec = v;
    const GateReport report = compare_to_baseline(cur, base);
    EXPECT_TRUE(report.ok()) << v;
    EXPECT_TRUE(report.improvements.empty()) << v;
  }
}

TEST(SuiteGate, WithinToleranceIsNotARegression) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points[0].metrics.throughput_ops_per_sec *= 0.95;  // within 10%
  cur.points[1].metrics.attempts_per_op *= 1.10;         // within 15%
  EXPECT_TRUE(compare_to_baseline(cur, base).ok());
}

TEST(SuiteGate, MissingBaselinePointIsCoverageLoss) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points.pop_back();
  const GateReport report = compare_to_baseline(cur, base);
  ASSERT_EQ(report.regressions.size(), 1u);
  EXPECT_EQ(report.regressions[0].metric, "coverage");
}

TEST(SuiteGate, BigImprovementSuggestsBaselineRefresh) {
  const SuiteResult base = tiny_result();
  SuiteResult cur = base;
  cur.points[0].metrics.throughput_ops_per_sec *= 2.0;
  const GateReport report = compare_to_baseline(cur, base);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.improvements.size(), 1u);
  EXPECT_EQ(report.improvements[0].metric, "throughput_ops_per_sec");
}

TEST(SuiteInvariants, ViolationIsReportedOnDoctoredResults) {
  SuiteResult r = tiny_result();
  // Make HLE-SCM slower than HLE on the contended MCS point.
  auto* hle = const_cast<PointRecord*>(r.find("rb-s64-u20-t8-mcs-hle"));
  auto* scm = const_cast<PointRecord*>(r.find("rb-s64-u20-t8-mcs-hle-scm"));
  ASSERT_NE(hle, nullptr);
  ASSERT_NE(scm, nullptr);
  hle->metrics.throughput_ops_per_sec = 2e7;
  scm->metrics.throughput_ops_per_sec = 1e7;
  bool found = false;
  for (const auto& inv : check_invariants(r)) {
    if (inv.name == "scm-beats-hle-on-contended-mcs") {
      EXPECT_FALSE(inv.skipped);
      EXPECT_FALSE(inv.ok);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SuiteInvariants, MissingPointsAreSkippedNotFailed) {
  SuiteResult empty;
  for (const auto& inv : check_invariants(empty)) {
    EXPECT_TRUE(inv.skipped) << inv.name;
    EXPECT_TRUE(inv.ok) << inv.name;
  }
}

// End-to-end smoke on one real point: running the same suite point twice is
// bit-identical (the gate depends on this determinism).
TEST(SuiteRun, PointIsDeterministic) {
  const auto points = suite_points_for(SuiteTier::kSmoke);
  ASSERT_FALSE(points.empty());
  RbPoint p = std::get<RbPoint>(points[1].workload);  // ttas-hle
  p.duration_sec = 0.0005;
  const PointMetrics a = PointMetrics::derive(run_point(p));
  const PointMetrics b = PointMetrics::derive(run_point(p));
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_DOUBLE_EQ(a.throughput_ops_per_sec, b.throughput_ops_per_sec);
  EXPECT_EQ(a.aborts_by_cause, b.aborts_by_cause);
}

// Point-level fan-out: three short smoke points of different kinds run
// through run_suite at jobs 1 and at jobs 3 with host_threads 2 must agree
// on every simulated metric; only the host fields may differ.
TEST(SuiteRun, JobsFanOutReproducesSequentialRun) {
  std::vector<SuitePoint> points;
  std::set<PointKind> kinds;
  for (const auto& sp : suite_points_for(SuiteTier::kSmoke)) {
    if (!kinds.insert(sp.kind()).second) continue;
    SuitePoint short_sp = sp;
    bool timed = false;
    std::visit(
        [&](auto& p) {
          if constexpr (requires { p.duration_sec; }) {
            p.duration_sec = 0.0002;
            timed = true;
          }
        },
        short_sp.workload);
    if (!timed) continue;
    points.push_back(std::move(short_sp));
    if (points.size() == 3) break;
  }
  ASSERT_EQ(points.size(), 3u);

  const SuiteResult seq = run_suite(points, 1, 1);
  const SuiteResult par = run_suite(points, 3, 2);
  EXPECT_EQ(seq.jobs, 1);
  EXPECT_EQ(par.jobs, 3);
  EXPECT_EQ(par.host_threads, 2);
  auto simulated = [](SuiteResult r) {
    r.host_cores = 0;
    r.jobs = 1;
    r.host_threads = 1;
    r.total_wall_ms = 0.0;
    for (auto& p : r.points) {
      p.metrics.wall_ms = 0.0;
      p.metrics.sim_ops_per_sec = 0.0;
      p.metrics.fp_owned_hits = 0;
      p.metrics.fp_probe_skips = 0;
      p.metrics.fp_bound_recomputes = 0;
    }
    return to_json_string(r);
  };
  ASSERT_EQ(seq.points.size(), 3u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(seq.points[i].def.id, points[i].id);
    EXPECT_GT(seq.points[i].metrics.ops, 0u) << points[i].id;
  }
  EXPECT_EQ(simulated(par), simulated(seq));
}

// Tier-1 byte identity: the smoke tier, run in process, reproduces every
// simulated metric of the committed baseline exactly. tests/CMakeLists.txt
// registers this test a second time with ELISION_FASTPATH=0, so the fast
// paths and the literal paths must both reproduce it. Only the host fields
// are left out: wall_ms, sim_ops_per_sec, and the fastpath counters (the
// owned-line hits depend on the host heap layout).
// Runs `points` two at a time and requires each to reproduce its
// bench/baseline.json record, host fields aside (wall time, host speed and
// the fast-path counters, which are 0 with ELISION_FASTPATH=0 and
// heap-placement dependent otherwise).
void expect_reproduces_baseline(const std::vector<SuitePoint>& points) {
  const auto base = load_results_file(ELISION_BASELINE_JSON);
  ASSERT_TRUE(base.has_value());
  const SuiteResult run = run_suite(points, 2);
  ASSERT_EQ(run.duration_scale, base->duration_scale)
      << "the baseline runs at ELISION_BENCH_SCALE=1";
  const bool fastpath = env_fastpath_enabled();
  auto point_json = [](PointRecord r, bool drop_host) {
    if (drop_host) {
      r.metrics.wall_ms = 0.0;
      r.metrics.sim_ops_per_sec = 0.0;
      r.metrics.fp_owned_hits = 0;
      r.metrics.fp_probe_skips = 0;
      r.metrics.fp_bound_recomputes = 0;
    }
    SuiteResult doc;
    doc.points.push_back(std::move(r));
    return to_json_string(doc);
  };
  ASSERT_FALSE(run.points.empty());
  for (const PointRecord& got : run.points) {
    const PointRecord* want = base->find(got.def.id);
    ASSERT_NE(want, nullptr) << got.def.id;
    EXPECT_EQ(point_json(got, true), point_json(*want, true)) << got.def.id;
    if (!fastpath) {
      EXPECT_EQ(point_json(got, false).find("\"fastpath\""),
                std::string::npos)
          << got.def.id << ": ELISION_FASTPATH=0 still reports fastpath";
    } else if (got.def.id == "rb-s64-u20-t8-ttas-hle-scm") {
      EXPECT_GT(got.metrics.fp_owned_hits, 0u)
          << "default run reports no owned-line hits: fast path not engaged?";
    }
  }
}

TEST(SuiteRun, SmokeTierReproducesCommittedBaseline) {
  expect_reproduces_baseline(suite_points_for(SuiteTier::kSmoke));
}

// The 64-, 128- and 256-thread Fig 5.1 points: the only ones where parked
// spin-waiters meet the two-level ready queue. Registered as the ctest
// suite_big_machine_baseline and left out of the suite_test run.
TEST(SuiteRun, BigMachinePointsReproduceCommittedBaseline) {
  std::vector<SuitePoint> big;
  for (const SuitePoint& p : suite_points()) {
    if (p.figure == "fig5.1-big") big.push_back(p);
  }
  ASSERT_EQ(big.size(), 3u);
  expect_reproduces_baseline(big);
}

}  // namespace
}  // namespace elision::harness

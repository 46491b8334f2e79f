// Metrics tests: histogram bucketing, registry aggregation, the JSON/CSV
// exports — including the acceptance check that a six-scheme sweep exports
// an abort-cause matrix and attempts histogram for every scheme — and the
// row table: a mutation of each RunStats row and each results row is seen
// by simulated_diff and simulated_json exactly when the row is simulated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/runner.hpp"
#include "harness/suite.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "tsx/shared.hpp"

namespace elision::harness {
namespace {

std::string export_to_string(const MetricsRegistry& reg, bool csv) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  if (csv) {
    reg.export_csv(f);
  } else {
    reg.export_json(f);
  }
  std::fclose(f);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

TEST(Histogram, PowerOfTwoBuckets) {
  Histogram h;
  for (const std::uint64_t v : {0, 1, 2, 3, 4, 7, 8, 15, 16}) h.add(v);
  ASSERT_EQ(h.buckets().size(), 6u);
  EXPECT_EQ(h.buckets()[0], 1u);  // {0}
  EXPECT_EQ(h.buckets()[1], 1u);  // {1}
  EXPECT_EQ(h.buckets()[2], 2u);  // {2,3}
  EXPECT_EQ(h.buckets()[3], 2u);  // {4..7}
  EXPECT_EQ(h.buckets()[4], 2u);  // {8..15}
  EXPECT_EQ(h.buckets()[5], 1u);  // {16..31}
  EXPECT_EQ(h.samples(), 9u);
  EXPECT_EQ(h.sum(), 56u);
  EXPECT_EQ(h.max(), 16u);
  EXPECT_NEAR(h.mean(), 56.0 / 9.0, 1e-9);
}

TEST(Histogram, BucketLabelsAndRanges) {
  EXPECT_EQ(Histogram::bucket_label(0), "0");
  EXPECT_EQ(Histogram::bucket_label(1), "1");
  EXPECT_EQ(Histogram::bucket_label(2), "2-3");
  EXPECT_EQ(Histogram::bucket_label(4), "8-15");
  EXPECT_EQ(Histogram::bucket_lo(5), 16u);
  EXPECT_EQ(Histogram::bucket_hi(5), 31u);
}

// Regression: bucket 64 (values with the top bit set) used to compute its
// range with `1 << 64` — UB caught under UBSan. It must saturate instead.
TEST(Histogram, MaxValuedSampleLandsInSaturatedTopBucket) {
  Histogram h;
  h.add(UINT64_MAX);
  h.add(std::uint64_t{1} << 63);
  ASSERT_EQ(h.buckets().size(), 65u);
  EXPECT_EQ(h.buckets()[64], 2u);
  EXPECT_EQ(h.max(), UINT64_MAX);
  EXPECT_EQ(Histogram::bucket_lo(64), std::uint64_t{1} << 63);
  EXPECT_EQ(Histogram::bucket_hi(64), UINT64_MAX);
  EXPECT_EQ(Histogram::bucket_label(64),
            "9223372036854775808-18446744073709551615");
  // Exporting a histogram containing the top bucket must not trip UBSan.
  RunStats run;
  run.attempts_hist.add(UINT64_MAX);
  MetricsRegistry reg;
  reg.record("S", "L", run);
  EXPECT_NE(export_to_string(reg, /*csv=*/false).find("18446744073709551615"),
            std::string::npos);
}

TEST(Histogram, MergeAddsBucketwise) {
  Histogram a, b;
  a.add(1);
  a.add(100);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.samples(), 3u);
  EXPECT_EQ(a.sum(), 104u);
  EXPECT_EQ(a.max(), 100u);
  EXPECT_EQ(a.buckets()[2], 1u);
}

TEST(QuantileHistogram, SmallValuesAreExact) {
  QuantileHistogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.add(v);
  EXPECT_EQ(h.samples(), 64u);
  EXPECT_EQ(h.sum(), 64u * 63u / 2);
  EXPECT_EQ(h.max(), 63u);
  // Values below kExact land in exact buckets, so every quantile is the
  // true order statistic.
  EXPECT_EQ(h.quantile(0.50), 31u);
  EXPECT_EQ(h.quantile(0.99), 63u);
  EXPECT_EQ(h.quantile(1.0), 63u);
  QuantileHistogram one;
  one.add(7);
  EXPECT_EQ(one.quantile(0.0), 7u);  // rank clamps to [1, samples]
  EXPECT_EQ(one.quantile(1.0), 7u);
  EXPECT_EQ(QuantileHistogram().quantile(0.5), 0u);  // empty
}

TEST(QuantileHistogram, BucketRangesPartitionTheValueLine) {
  // Each bucket's lo must be the previous bucket's hi + 1, and every value
  // must index into a bucket containing it.
  for (std::size_t i = 1; i < 64 + 10 * QuantileHistogram::kSub; ++i) {
    EXPECT_EQ(QuantileHistogram::bucket_lo(i),
              QuantileHistogram::bucket_hi(i - 1) + 1)
        << i;
  }
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{63}, std::uint64_t{64},
        std::uint64_t{127}, std::uint64_t{128}, std::uint64_t{1000},
        std::uint64_t{123456789}, std::uint64_t{1} << 62}) {
    const std::size_t i = QuantileHistogram::bucket_index(v);
    EXPECT_GE(v, QuantileHistogram::bucket_lo(i)) << v;
    EXPECT_LE(v, QuantileHistogram::bucket_hi(i)) << v;
  }
}

// Acceptance for the latency-percentile machinery: against a sorted
// reference over a heavy-tailed sample, every reported quantile is >= the
// true order statistic and within the documented 1/32 relative error.
TEST(QuantileHistogram, QuantilesMatchSortedReferenceWithinSubBucketError) {
  support::Xoshiro256 rng(2024);
  QuantileHistogram h;
  std::vector<std::uint64_t> ref;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform spread over ~6 decades, like queueing latencies.
    const std::uint64_t v =
        rng.next_below(std::uint64_t{1} << (3 + rng.next_below(20)));
    h.add(v);
    ref.push_back(v);
  }
  std::sort(ref.begin(), ref.end());
  for (const double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(ref.size())));
    const std::uint64_t exact = ref[rank - 1];
    const std::uint64_t approx = h.quantile(q);
    EXPECT_GE(approx, exact) << q;  // bucket_hi never under-reports
    EXPECT_LE(static_cast<double>(approx - exact),
              static_cast<double>(exact) / 32.0 + 1.0)
        << q;
  }
  EXPECT_EQ(h.quantile(1.0), ref.back());  // max is tracked exactly
}

TEST(QuantileHistogram, MergeMatchesSingleHistogramOverTheUnion) {
  support::Xoshiro256 rng(7);
  QuantileHistogram a, b, all;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.next_below(1 << 20);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.samples(), all.samples());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_EQ(a.buckets(), all.buckets());
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(a.quantile(q), all.quantile(q)) << q;
  }
}

// Regression (satellite): Histogram::add and merge used to wrap sum_ on
// overflow, corrupting mean() in long aggregations. They must saturate.
TEST(Histogram, SumSaturatesInsteadOfWrapping) {
  Histogram h;
  h.add(UINT64_MAX);
  h.add(UINT64_MAX);
  EXPECT_EQ(h.sum(), UINT64_MAX);
  Histogram other;
  other.add(UINT64_MAX);
  h.merge(other);
  EXPECT_EQ(h.sum(), UINT64_MAX);
  QuantileHistogram q;
  q.add(UINT64_MAX);
  q.add(UINT64_MAX);
  EXPECT_EQ(q.sum(), UINT64_MAX);
}

TEST(MetricsRegistry, SeriesAreKeyedAndOrdered) {
  RunStats run;
  MetricsRegistry reg;
  run.ops = 10;
  reg.record("HLE", "MCS", run);
  run.ops = 20;
  reg.record("HLE", "TTAS", run);
  run.ops = 5;
  reg.record("HLE", "MCS", run);  // same series again
  ASSERT_EQ(reg.entries().size(), 2u);
  EXPECT_EQ(reg.entries()[0].stats.ops, 15u);
  EXPECT_EQ(reg.entries()[0].runs, 2u);
  EXPECT_EQ(reg.entries()[1].stats.ops, 20u);
  EXPECT_EQ(reg.entries()[1].runs, 1u);
}

TEST(MetricsRegistry, RecordAccumulatesRunStats) {
  RunStats run;
  run.ops = 100;
  run.spec_ops = 90;
  run.nonspec_ops = 10;
  run.attempts = 120;
  run.elapsed_cycles = 1000;
  run.tx.begins = 110;
  run.tx.commits = 90;
  run.tx.record_abort(tsx::AbortCause::kConflict);
  run.attempts_hist.add(1);
  run.attempts_hist.add(3);
  tsx::AvalancheEpisode ep;
  ep.start = 100;
  ep.end = 600;
  ep.victims = {1, 2, 3};
  run.episodes.push_back(ep);

  MetricsRegistry reg;
  reg.record("HLE", "MCS", run);
  reg.record("HLE", "MCS", run);
  EXPECT_EQ(reg.entries()[0].runs, 2u);
  const RunStats& m = reg.entries()[0].stats;
  EXPECT_EQ(m.ops, 200u);
  EXPECT_EQ(m.attempts, 240u);
  EXPECT_EQ(m.tx.aborts_by_cause[static_cast<std::size_t>(
                tsx::AbortCause::kConflict)],
            2u);
  EXPECT_EQ(m.attempts_hist.samples(), 4u);
  EXPECT_EQ(m.episodes.size(), 2u);
  // The export sums the merged episodes.
  const auto doc = support::json::parse(export_to_string(reg, /*csv=*/false));
  ASSERT_TRUE(doc.has_value());
  const auto* av = doc->find("series")->items()[0].find("avalanche");
  ASSERT_NE(av, nullptr);
  EXPECT_EQ(av->find("episodes")->as_u64(), 2u);
  EXPECT_EQ(av->find("victims")->as_u64(), 6u);
  EXPECT_EQ(av->find("max_victims")->as_u64(), 3u);
  EXPECT_EQ(av->find("serialized_cycles")->as_u64(), 1000u);
}

// Regression: a series used to keep whatever ghz the previous run had (and
// the default 3.4 before that), so series from non-default MachineConfig
// runs reported wrong throughput. It must propagate the first run's ghz and
// reject mixing machines within one series.
TEST(MetricsRegistry, RecordPropagatesGhzFromRun) {
  RunStats run;
  run.ops = 1000;
  run.elapsed_cycles = 2'000'000'000;  // 1 virtual second at 2 GHz
  run.ghz = 2.0;
  MetricsRegistry reg;
  reg.record("HLE", "MCS", run);
  const RunStats& m = reg.entries()[0].stats;
  EXPECT_DOUBLE_EQ(m.ghz, 2.0);
  EXPECT_NEAR(m.seconds(), 1.0, 1e-9);
  EXPECT_NEAR(m.throughput(), 1000.0, 1e-6);
}

TEST(MetricsRegistry, RecordRejectsMixedGhzWithinASeries) {
  RunStats a;
  a.ops = 10;
  a.elapsed_cycles = 100;
  a.ghz = 3.4;
  RunStats b = a;
  b.ghz = 2.0;
  MetricsRegistry reg;
  reg.record("HLE", "MCS", a);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(reg.record("HLE", "MCS", b), "different MachineConfig");
}

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Acceptance: a run over all six evaluated schemes exports one JSON series
// per scheme, each with the abort-cause matrix and the attempts histogram.
TEST(MetricsExport, SixSchemeSweepHasMatrixAndHistogramPerScheme) {
  MetricsRegistry reg;
  tsx::Shared<std::uint64_t> counter;
  for (const auto scheme : locks::kAllSixSchemes) {
    BenchConfig cfg;
    cfg.threads = 4;
    cfg.duration_sec = 0.0002;
    cfg.machine.seed = 7;
    cfg.policy = locks::ElisionPolicy::from_scheme(scheme);
    cfg.telemetry = true;
    locks::TtasLock lock;
    locks::CriticalSection<locks::TtasLock> cs(cfg.policy, lock);
    reg.record(cfg.policy.name(), locks::TtasLock::kName,
               run_workload(cfg, [&](tsx::Ctx& ctx) {
                 return cs.run(ctx, [&] {
                   counter.store(ctx, counter.load(ctx) + 1);
                 });
               }));
  }
  ASSERT_EQ(reg.entries().size(), 6u);

  const std::string json = export_to_string(reg, /*csv=*/false);
  for (const auto scheme : locks::kAllSixSchemes) {
    const std::string key =
        std::string("\"scheme\":\"") + locks::scheme_name(scheme) + "\"";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(count_occurrences(json, "\"aborts_by_cause\""), 6u);
  EXPECT_EQ(count_occurrences(json, "\"attempts_hist\""), 6u);
  EXPECT_EQ(count_occurrences(json, "\"rejoin_cycles_hist\""), 6u);
  EXPECT_NE(json.find("\"conflict\""), std::string::npos);

  // Every scheme completed regions, so every histogram has samples.
  for (const auto& e : reg.entries()) {
    EXPECT_GT(e.stats.ops, 0u) << e.scheme;
    EXPECT_GT(e.stats.attempts_hist.samples(), 0u) << e.scheme;
  }

  const std::string csv = export_to_string(reg, /*csv=*/true);
  EXPECT_NE(csv.find("scheme,lock,runs"), std::string::npos);
  EXPECT_NE(csv.find("aborts_conflict"), std::string::npos);
  // Header line + one row per scheme.
  EXPECT_EQ(count_occurrences(csv, "\n"), 7u);
}

// Satellite acceptance: the JSON export parses as a real JSON document —
// scheme/lock names escaped, histogram and avalanche fields intact, series
// in insertion order — and the CSV export keeps the same series order.
TEST(MetricsExport, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  RunStats run;
  run.ops = 50;
  run.spec_ops = 40;
  run.nonspec_ops = 10;
  run.attempts = 60;
  run.elapsed_cycles = 34000;
  run.tx.begins = 55;
  run.tx.commits = 40;
  run.tx.record_abort(tsx::AbortCause::kConflict);
  run.attempts_hist.add(1);
  run.attempts_hist.add(6);
  run.rejoin_hist.add(1200);
  tsx::AvalancheEpisode ep;
  ep.start = 10;
  ep.end = 100;
  ep.victims = {1, 2};
  run.episodes.push_back(ep);
  // Names that would corrupt unescaped JSON output.
  reg.record("HLE \"quoted\\scheme\"", "lock\n\ttab", run);
  reg.record("Standard", "TTAS", run);

  const std::string text = export_to_string(reg, /*csv=*/false);
  const auto doc = support::json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;

  const auto* series = doc->find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->items().size(), 2u);
  // Insertion order preserved, names round-tripped through escaping.
  const auto& first = series->items()[0];
  EXPECT_EQ(first.find("scheme")->as_string(), "HLE \"quoted\\scheme\"");
  EXPECT_EQ(first.find("lock")->as_string(), "lock\n\ttab");
  EXPECT_EQ(series->items()[1].find("scheme")->as_string(), "Standard");

  EXPECT_EQ(first.find("ops")->as_u64(), 50u);
  const auto* causes = first.find("aborts_by_cause");
  ASSERT_NE(causes, nullptr);
  EXPECT_EQ(causes->find("conflict")->as_u64(), 1u);
  const auto* hist = first.find("attempts_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("samples")->as_u64(), 2u);
  EXPECT_EQ(hist->find("buckets")->find("4-7")->as_u64(), 1u);
  const auto* rejoin = first.find("rejoin_cycles_hist");
  ASSERT_NE(rejoin, nullptr);
  EXPECT_EQ(rejoin->find("max")->as_u64(), 1200u);
  const auto* avalanche = first.find("avalanche");
  ASSERT_NE(avalanche, nullptr);
  EXPECT_EQ(avalanche->find("episodes")->as_u64(), 1u);
  EXPECT_EQ(avalanche->find("victims")->as_u64(), 2u);

  // CSV: header plus rows in the same order.
  const std::string csv = export_to_string(reg, /*csv=*/true);
  const auto first_row = csv.find('\n') + 1;
  EXPECT_EQ(csv.find("Standard"), csv.rfind("Standard"));
  EXPECT_GT(csv.find("Standard"), first_row);
}

// A run in which every row holds a value: each row's change applied once.
RunStats every_row_set() {
  RunStats s;
  for (const StatsRow& r : stats_rows()) r.change(s);
  return s;
}

SuiteResult one_point(const RunStats& s) {
  SuiteResult r;
  r.points.push_back({SuitePoint{}, PointMetrics::derive(s)});
  return r;
}

// Each row changed alone: simulated_diff names it exactly when it is
// simulated, and simulated_json changes exactly when it is simulated and
// the results document changes; a host row changes only results_json.
TEST(StatsRows, EachChangeIsSeenExactlyWhereTheRowIsSimulated) {
  const RunStats base = every_row_set();
  const SuiteResult base_doc = one_point(base);
  std::set<std::string> names, host;
  for (const StatsRow& r : stats_rows()) {
    SCOPED_TRACE(r.name);
    EXPECT_TRUE(names.insert(r.name).second) << "two rows of one name";
    const bool simulated = r.tag == MetricTag::kSimulated;
    if (!simulated) host.insert(r.name);
    RunStats changed = base;
    r.change(changed);
    EXPECT_FALSE(r.same(base, changed));
    EXPECT_EQ(simulated_diff(base, changed), simulated ? r.name : "");
    const SuiteResult doc = one_point(changed);
    const bool in_doc = results_json(doc) != results_json(base_doc);
    EXPECT_EQ(simulated_json(doc) != simulated_json(base_doc),
              simulated && in_doc);
    EXPECT_TRUE(in_doc || simulated);
  }
  // Rows bench/e2e's digest_stats does not read are rows too: a slot of the
  // timeline, a shard count and a latency bucket each changed in place.
  for (const char* name : {"arrivals", "arrivals_lock_held", "timeline",
                           "shard_requests", "op_latency", "perturb_points"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
  EXPECT_EQ(host, (std::set<std::string>{"tx.fp_owned_hits",
                                         "tx.fp_probe_skips",
                                         "fp_bound_recomputes"}));
}

// The host rows of the document itself: wall time, simulator speed and
// run.host.
TEST(StatsRows, SimulatedJsonDropsTheDocumentsHostRows) {
  using Change = void (*)(SuiteResult&);
  const SuiteResult base = one_point(every_row_set());
  for (const Change change : std::initializer_list<Change>{
           [](SuiteResult& r) { r.points[0].metrics.wall_ms += 1; },
           [](SuiteResult& r) { r.points[0].metrics.sim_ops_per_sec += 1; },
           [](SuiteResult& r) { r.host_cores += 1; },
           [](SuiteResult& r) { r.jobs += 1; },
           [](SuiteResult& r) { r.host_threads += 1; },
           [](SuiteResult& r) { r.total_wall_ms += 1; }}) {
    SuiteResult changed = base;
    change(changed);
    EXPECT_EQ(simulated_json(changed), simulated_json(base));
    EXPECT_NE(results_json(changed), results_json(base));
  }
}

// Merged into an empty run, a run reads the same on every row; merged with
// itself, as if each row were changed twice (ghz must match, not add).
TEST(StatsRows, AccumulateMergesEveryRow) {
  const RunStats one = every_row_set();
  RunStats twice = one;
  for (const StatsRow& r : stats_rows()) {
    if (std::string_view(r.name) != "ghz") r.change(twice);
  }
  RunStats total;
  total.accumulate(one);
  for (const StatsRow& r : stats_rows()) {
    EXPECT_TRUE(r.same(total, one)) << r.name << ": into an empty run";
  }
  total.accumulate(one);
  for (const StatsRow& r : stats_rows()) {
    EXPECT_TRUE(r.same(total, twice)) << r.name << ": merged twice";
  }
}

}  // namespace
}  // namespace elision::harness

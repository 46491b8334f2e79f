// Harness tests: metric accounting, timelines, determinism, reporting.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "tsx/shared.hpp"

namespace elision::harness {
namespace {

BenchConfig quiet_config() {
  BenchConfig cfg;
  cfg.machine.n_cores = 8;
  cfg.machine.smt_per_core = 1;
  cfg.tsx.spurious_per_begin = 0;
  cfg.tsx.spurious_per_access = 0;
  cfg.threads = 4;
  cfg.duration_sec = 0.0001;
  return cfg;
}

TEST(Runner, CountsOpsAndAttempts) {
  BenchConfig cfg = quiet_config();
  RunStats st = run_workload(cfg, [](tsx::Ctx& ctx) -> locks::RegionResult {
    ctx.engine().compute(ctx, 100);
    return {.speculative = true, .attempts = 3};
  });
  EXPECT_GT(st.ops, 0u);
  EXPECT_EQ(st.spec_ops, st.ops);
  EXPECT_EQ(st.nonspec_ops, 0u);
  EXPECT_EQ(st.attempts, st.ops * 3);
  EXPECT_DOUBLE_EQ(st.attempts_per_op(), 3.0);
  EXPECT_DOUBLE_EQ(st.nonspec_fraction(), 0.0);
}

TEST(Runner, NonSpecFractionMixes) {
  BenchConfig cfg = quiet_config();
  cfg.threads = 1;
  int i = 0;
  RunStats st = run_workload(cfg, [&i](tsx::Ctx& ctx) -> locks::RegionResult {
    ctx.engine().compute(ctx, 100);
    return {.speculative = (i++ % 2 == 0), .attempts = 1};
  });
  EXPECT_NEAR(st.nonspec_fraction(), 0.5, 0.01);
}

TEST(Runner, RespectsVirtualDeadline) {
  BenchConfig cfg = quiet_config();
  cfg.duration_sec = 0.0002;
  RunStats st = run_workload(cfg, [](tsx::Ctx& ctx) -> locks::RegionResult {
    ctx.engine().compute(ctx, 1000);
    return {.speculative = true, .attempts = 1};
  });
  // 0.2 ms at 3.4 GHz = 680k cycles; 4 threads x 680 ops.
  EXPECT_NEAR(static_cast<double>(st.ops), 4 * 680.0, 10.0);
  EXPECT_GE(st.elapsed_cycles, cfg.duration_cycles());
}

TEST(Runner, DeterministicAcrossIdenticalRuns) {
  auto once = [] {
    BenchConfig cfg = quiet_config();
    locks::TtasLock lock;
    locks::CriticalSection<locks::TtasLock> cs(locks::ElisionPolicy::hle(), lock);
    tsx::Shared<std::uint64_t> hot(0);
    return run_workload(cfg, [&](tsx::Ctx& ctx) {
      return cs.run(ctx, [&] { hot.store(ctx, hot.load(ctx) + 1); });
    });
  };
  EXPECT_EQ(simulated_diff(once(), once()), "");
}

TEST(Runner, TimelineSlotsAccumulate) {
  BenchConfig cfg = quiet_config();
  cfg.timeline_slot_cycles = cfg.duration_cycles() / 10;
  RunStats st = run_workload(cfg, [](tsx::Ctx& ctx) -> locks::RegionResult {
    ctx.engine().compute(ctx, 500);
    return {.speculative = true, .attempts = 1};
  });
  ASSERT_GE(st.timeline.size(), 10u);
  std::uint64_t timeline_total = 0;
  for (const auto& slot : st.timeline) timeline_total += slot.ops;
  EXPECT_EQ(timeline_total, st.ops);
  // A uniform workload spreads roughly evenly over the first 10 slots.
  for (int s = 0; s < 10; ++s) {
    EXPECT_NEAR(static_cast<double>(st.timeline[s].ops),
                static_cast<double>(st.ops) / 10.0,
                static_cast<double>(st.ops) / 20.0)
        << "slot " << s;
  }
}

TEST(Runner, ThroughputUsesVirtualTime) {
  BenchConfig cfg = quiet_config();
  RunStats st = run_workload(cfg, [](tsx::Ctx& ctx) -> locks::RegionResult {
    ctx.engine().compute(ctx, 340);  // 100 ns at 3.4 GHz
    return {.speculative = true, .attempts = 1};
  });
  // 4 threads x 10M ops/s.
  EXPECT_NEAR(st.throughput(), 4e7, 4e6);
}

TEST(Report, TableFormatsRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  // Smoke only: printing must not crash and fmt helpers behave.
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_int(12345), "12345");
}

TEST(Report, CsvEscapesNothingButPrints) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.print_csv(f);
  std::rewind(f);
  char buf[64] = {};
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_STREQ(buf, "x,y\n");
  std::fclose(f);
}

TEST(Runner, EnvScaleDefaultsToOne) {
  EXPECT_GT(env_duration_scale(), 0.0);
}

// Regression: env_duration_scale used atof, so malformed or zero
// ELISION_BENCH_SCALE silently became 1.0 with no hint ("2,5", "1.5x" and
// "nan" all parsed as valid-ish). It must accept exactly positive finite
// numbers (with trailing whitespace) and fall back to 1.0 otherwise.
TEST(Runner, EnvScaleParsesStrictly) {
  const char* kVar = "ELISION_BENCH_SCALE";
  struct Case {
    const char* value;
    double expect;
  };
  const Case cases[] = {
      {"2.5", 2.5},      {"0.25", 0.25},   {"1e1", 10.0},
      {" 3 ", 3.0},      // strtod skips leading, we skip trailing space
      {"0", 1.0},        // zero would hang benches forever
      {"-2", 1.0},       {"abc", 1.0},     {"1.5x", 1.0},  // trailing garbage
      {"2,5", 1.0},      {"inf", 1.0},     {"nan", 1.0},
      {"", 1.0},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(setenv(kVar, c.value, 1), 0);
    EXPECT_DOUBLE_EQ(env_duration_scale(), c.expect)
        << "ELISION_BENCH_SCALE=\"" << c.value << "\"";
  }
  ASSERT_EQ(unsetenv(kVar), 0);
  EXPECT_DOUBLE_EQ(env_duration_scale(), 1.0);
}

}  // namespace
}  // namespace elision::harness

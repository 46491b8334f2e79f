// STAMP-mini correctness tests: every application must produce consistent
// results under every locking scheme, at several thread counts.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "stamp/common.hpp"

namespace elision::stamp {
namespace {

StampConfig base_config() {
  StampConfig cfg;
  cfg.scale = 0.125;  // small problems: these are correctness tests
  cfg.threads = 8;
  return cfg;
}

bool deterministic_app(const std::string& name) {
  // vacation's and labyrinth's outcomes are inherently
  // interleaving-dependent (like real STAMP); the others produce
  // scheme-independent results.
  return name.rfind("vacation", 0) != 0 && name != "labyrinth";
}

struct StampParam {
  std::string app;
  locks::Scheme scheme;
  LockKind lock;
};

std::string stamp_param_name(const ::testing::TestParamInfo<StampParam>& i) {
  std::string s = i.param.app + "_" + locks::scheme_name(i.param.scheme) +
                  (i.param.lock == LockKind::kTtas ? "_TTAS" : "_MCS");
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

class StampApps : public ::testing::TestWithParam<StampParam> {
 protected:
  // Single-threaded standard-lock reference checksums, computed once.
  static std::map<std::string, std::uint64_t>& references() {
    static std::map<std::string, std::uint64_t> refs = [] {
      std::map<std::string, std::uint64_t> out;
      for (const char* app : kAppNames) {
        StampConfig cfg = base_config();
        cfg.threads = 1;
        cfg.scheme = locks::Scheme::kStandard;
        out[app] = run_app(app, cfg).checksum;
      }
      return out;
    }();
    return refs;
  }
};

TEST_P(StampApps, CompletesCorrectly) {
  const StampParam p = GetParam();
  StampConfig cfg = base_config();
  cfg.scheme = p.scheme;
  cfg.lock = p.lock;
  const StampResult r = run_app(p.app, cfg);
  EXPECT_GT(r.ops, 0u);
  EXPECT_GT(r.elapsed_cycles, 0u);
  EXPECT_TRUE(r.invariants_ok);
  EXPECT_GE(r.attempts, r.ops);
  EXPECT_LE(r.nonspec_ops, r.ops);
  if (deterministic_app(p.app)) {
    EXPECT_EQ(r.checksum, references()[p.app])
        << p.app << " result depends on the locking scheme";
  }
}

std::vector<StampParam> stamp_params() {
  std::vector<StampParam> out;
  for (const char* app : kAllAppNames) {
    for (const auto scheme :
         {locks::Scheme::kStandard, locks::Scheme::kHle,
          locks::Scheme::kHleScm, locks::Scheme::kPesSlr,
          locks::Scheme::kOptSlr, locks::Scheme::kOptSlrScm}) {
      out.push_back({app, scheme, LockKind::kTtas});
      out.push_back({app, scheme, LockKind::kMcs});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllApps, StampApps,
                         ::testing::ValuesIn(stamp_params()),
                         stamp_param_name);

TEST(StampScaling, ThreadCountPreservesResults) {
  for (const char* app : {"genome", "kmeans_high", "ssca2", "intruder"}) {
    StampConfig cfg = base_config();
    cfg.scheme = locks::Scheme::kHleScm;
    std::uint64_t first = 0;
    for (const int threads : {1, 2, 8}) {
      cfg.threads = threads;
      const StampResult r = run_app(app, cfg);
      EXPECT_TRUE(r.invariants_ok) << app << " @" << threads;
      if (threads == 1) {
        first = r.checksum;
      } else {
        EXPECT_EQ(r.checksum, first) << app << " @" << threads;
      }
    }
  }
}

TEST(StampScaling, TinyScaleCompletes) {
  // A scale that rounds an app's problem size down to zero (vacation's
  // items below 1/256, kmeans' points below 1/2048) still runs every app.
  StampConfig cfg = base_config();
  cfg.scale = 0.0001;
  for (const char* app : kAllAppNames) {
    EXPECT_TRUE(run_app(app, cfg).invariants_ok) << app;
  }
}

TEST(StampSpeedup, ElisionBeatsSerialAtEightThreads) {
  // Coarse sanity of the headline claim on the most elision-friendly app:
  // HLE-SCM must beat the standard lock at 8 threads on genome.
  StampConfig cfg = base_config();
  cfg.scale = 0.25;
  cfg.scheme = locks::Scheme::kStandard;
  const auto standard = run_app("genome", cfg);
  cfg.scheme = locks::Scheme::kHleScm;
  const auto scm = run_app("genome", cfg);
  EXPECT_LT(scm.elapsed_cycles, standard.elapsed_cycles);
}

TEST(StampApi, UnknownAppCheckFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StampConfig cfg = base_config();
  EXPECT_DEATH(run_app("nonexistent", cfg), "unknown STAMP app");
}

}  // namespace
}  // namespace elision::stamp

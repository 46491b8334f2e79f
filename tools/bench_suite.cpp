// bench_suite — run the curated benchmark suite (src/harness/suite.hpp),
// emit canonical machine-readable results, and optionally gate against a
// committed baseline.
//
//   bench_suite [--tier smoke|full] [--point ID] [--jobs N]
//               [--host-threads N] [--out FILE]
//               [--baseline FILE] [--gate] [--list] [--quiet]
//               [--plant-regression FACTOR] [--plant-slowdown FACTOR]
//               [--tol-simops REL]
//
// --jobs N runs the tier's points N at a time on an in-process host-thread
// pool (support/parallel.hpp); --jobs 1, the default, runs them in order on
// the calling thread. --host-threads N additionally fans each point's
// multi-seed runs out N-wide. --point ID runs only that point of the tier
// (it cannot be gated: every other baseline point would read as coverage
// loss). Every simulated metric is deterministic per seed, so all of these
// produce output identical to a sequential run except for the host
// wall-time fields (wall_ms, sim_ops_per_sec, run.host).
//
// Exit status: 0 on success; 1 if the gate found a regression or a
// paper-qualitative invariant is violated; 2 on usage/IO errors, including
// a results file that cannot be written.
//
// Gate tolerances are constants on the metrics table's rows; --tol-simops
// replaces the cross-host sim_ops_per_sec one (0.75) for same-host gating.
// --plant-regression multiplies every reported throughput before gating and
// --plant-slowdown every sim_ops_per_sec; scripts/check.sh uses them as
// self-checks that the gate actually fires.
// See docs/benchmarks.md for the schema and the baseline-update workflow.
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "harness/suite.hpp"
#include "support/parallel.hpp"
#include "support/parse.hpp"

namespace {

using namespace elision;

struct Options {
  harness::SuiteTier tier = harness::SuiteTier::kSmoke;
  std::string out_file = "BENCH_results.json";
  std::string baseline_file;
  std::string point_id;  // non-empty: run only this point of the tier
  int jobs = 1;          // points run concurrently
  int host_threads = 1;  // per-point multi-seed fan-out width
  bool gate = false;
  bool list = false;
  bool quiet = false;
  double plant_factor = 1.0;
  double plant_simops = 1.0;
  std::optional<double> tol_simops;  // the gate's sim_ops_per_sec tolerance
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(
      stderr,
      "usage:\n"
      "  bench_suite [--tier smoke|full] [--point ID] [--jobs N]\n"
      "              [--host-threads N] [--out FILE]\n"
      "              [--baseline FILE] [--gate] [--list] [--quiet]\n"
      "              [--plant-regression FACTOR] [--plant-slowdown FACTOR]\n"
      "              [--tol-simops REL]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--tier") {
      const auto t = harness::suite_tier_from_name(next());
      if (!t) usage("--tier must be smoke or full");
      o.tier = *t;
    } else if (a == "--out") {
      o.out_file = next();
    } else if (a == "--baseline") {
      o.baseline_file = next();
    } else if (a == "--point") {
      o.point_id = next();
    } else if (a == "--jobs") {
      const auto v = support::parse_int(next());
      if (!v || *v < 1) usage("--jobs must be a decimal integer >= 1");
      o.jobs = *v;
    } else if (a == "--host-threads") {
      const auto v = support::parse_int(next());
      if (!v) usage("--host-threads must be a decimal integer >= 0");
      o.host_threads = *v != 0 ? *v : support::host_hardware_threads();
    } else if (a == "--gate") {
      o.gate = true;
    } else if (a == "--list") {
      o.list = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (a == "--plant-regression") {
      const auto v = support::parse_double(next());
      if (!v || *v <= 0) usage("--plant-regression must be a number > 0");
      o.plant_factor = *v;
    } else if (a == "--plant-slowdown") {
      const auto v = support::parse_double(next());
      if (!v || *v <= 0) usage("--plant-slowdown must be a number > 0");
      o.plant_simops = *v;
    } else if (a == "--tol-simops") {
      const auto v = support::parse_double(next());
      if (!v || *v < 0) usage("--tol-simops must be a number >= 0");
      o.tol_simops = *v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.gate && o.baseline_file.empty()) {
    usage("--gate requires --baseline FILE");
  }
  if (o.gate && !o.point_id.empty()) {
    usage("--gate cannot be combined with --point (every other baseline "
          "point would read as coverage loss)");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);

  if (o.list) {
    std::vector<std::string> header = {"id", "tier", "figure", "kind"};
    header.insert(header.end(), std::begin(harness::kPointListColumns),
                  std::end(harness::kPointListColumns));
    harness::Table table(header);
    for (const auto& sp : harness::suite_points_for(o.tier)) {
      std::vector<std::string> row = {sp.id, harness::suite_tier_name(sp.tier),
                                      sp.figure,
                                      harness::point_kind_name(sp.kind())};
      for (const char* column : harness::kPointListColumns) {
        row.push_back(harness::point_column(sp, column));
      }
      table.add_row(std::move(row));
    }
    table.print();
    return 0;
  }

  // Parse the baseline before running anything, so a malformed one fails
  // fast (exit 2) instead of after the whole tier.
  std::optional<harness::SuiteResult> baseline;
  if (o.gate) {
    baseline = harness::load_results_file(o.baseline_file);
    if (!baseline) {
      std::fprintf(stderr, "bench_suite: cannot parse baseline %s\n",
                   o.baseline_file.c_str());
      return 2;
    }
  }

  std::vector<harness::SuitePoint> points = harness::suite_points_for(o.tier);
  if (!o.point_id.empty()) {
    std::erase_if(points, [&](const harness::SuitePoint& sp) {
      return sp.id != o.point_id;
    });
    if (points.empty()) {
      std::fprintf(stderr, "bench_suite: no point %s in the %s tier\n",
                   o.point_id.c_str(), harness::suite_tier_name(o.tier));
      return 2;
    }
  }

  harness::SuiteResult result =
      harness::run_suite(points, o.jobs, o.host_threads);
  harness::Table progress({"id", "Mops/s", "att/op", "nonspec", "episodes"});
  for (auto& p : result.points) {
    auto& m = p.metrics;
    m.throughput_ops_per_sec *= o.plant_factor;
    m.sim_ops_per_sec *= o.plant_simops;
    progress.add_row({p.def.id, harness::fmt(m.throughput_ops_per_sec / 1e6, 2),
                      harness::fmt(m.attempts_per_op, 2),
                      harness::fmt(m.nonspec_fraction, 3),
                      harness::fmt_int(m.avalanche_episodes)});
  }
  if (!o.quiet) progress.print();
  if (o.plant_factor != 1.0) {
    std::fprintf(stderr,
                 "bench_suite: throughputs scaled by %.3f "
                 "(--plant-regression self-check mode)\n",
                 o.plant_factor);
  }
  if (o.plant_simops != 1.0) {
    std::fprintf(stderr,
                 "bench_suite: sim_ops_per_sec scaled by %.3f "
                 "(--plant-slowdown self-check mode)\n",
                 o.plant_simops);
  }

  std::FILE* f = std::fopen(o.out_file.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_suite: cannot open %s\n", o.out_file.c_str());
    return 2;
  }
  harness::write_results_json(result, f);
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n", o.out_file.c_str());
    return 2;
  }
  if (!o.quiet) {
    std::printf("results: %zu points -> %s (jobs %d, %.0f ms)\n",
                result.points.size(), o.out_file.c_str(), result.jobs,
                result.total_wall_ms);
  }

  int rc = 0;

  for (const auto& inv : harness::check_invariants(result)) {
    const bool failed = !inv.skipped && !inv.ok;
    if (failed) rc = 1;
    if (failed || !o.quiet) {
      std::fprintf(failed ? stderr : stdout, "invariant %-34s %s (%s)\n",
                   inv.name.c_str(),
                   failed ? "FAIL" : inv.skipped ? "SKIP" : "ok  ",
                   inv.detail.c_str());
    }
  }

  if (baseline) {
    const auto report =
        harness::compare_to_baseline(result, *baseline, o.tol_simops);
    harness::print_gate_report(report, report.ok() ? stdout : stderr);
    if (!report.ok()) rc = 1;
  }

  return rc;
}

// bench_suite — run the curated benchmark suite (src/harness/suite.hpp),
// emit canonical machine-readable results, and optionally gate against a
// committed baseline.
//
//   bench_suite [--tier smoke|full] [--jobs N] [--jobs-mode fork|threads]
//               [--host-threads N] [--out FILE]
//               [--baseline FILE] [--gate] [--list] [--quiet]
//               [--plant-regression FACTOR] [--plant-slowdown FACTOR]
//               [--tol-throughput REL] [--tol-attempts REL]
//               [--tol-fraction ABS] [--tol-simops REL] [--no-invariants]
//
// --jobs N fans the suite's points out N-wide. With --jobs-mode fork (the
// default) each point runs in an isolated worker subprocess (a
// self-invocation with --point ID) and the per-point fragments are merged
// into one canonical document; with --jobs-mode threads the points run on
// an in-process host-thread pool (support/parallel.hpp) with no
// subprocesses, temp files, or JSON round-trips. --host-threads N
// additionally fans each point's multi-seed runs out N-wide (in either
// mode). Every simulated metric is deterministic per seed, so all of these
// produce output identical to a sequential run except for the host
// wall-time fields (wall_ms, sim_ops_per_sec, run.host).
//
// Exit status: 0 on success; 1 if the gate found a regression or a
// paper-qualitative invariant is violated; 2 on usage/IO/subprocess errors.
//
// --plant-regression multiplies every reported throughput before gating and
// --plant-slowdown every sim_ops_per_sec; scripts/check.sh uses them as
// self-checks that the gate actually fires.
// See docs/benchmarks.md for the schema and the baseline-update workflow.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define ELISION_SUITE_HAS_SUBPROCESS 1
#include <sys/wait.h>
#include <unistd.h>
#else
#define ELISION_SUITE_HAS_SUBPROCESS 0
#endif

#include <chrono>
#include <thread>

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
  std::string point_id;  // non-empty: child mode, run one point
  int jobs = 1;
  std::string jobs_mode = "fork";  // "fork" | "threads"
  int host_threads = 1;            // per-point multi-seed fan-out width
  bool gate = false;
  bool list = false;
  bool quiet = false;
  bool invariants = true;
  double plant_factor = 1.0;
  double plant_simops = 1.0;
  harness::GateTolerance tol;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(
      stderr,
      "usage:\n"
      "  bench_suite [--tier smoke|full] [--jobs N]\n"
      "              [--jobs-mode fork|threads] [--host-threads N]\n"
      "              [--out FILE]\n"
      "              [--baseline FILE] [--gate] [--list] [--quiet]\n"
      "              [--plant-regression FACTOR] [--plant-slowdown FACTOR]\n"
      "              [--tol-throughput REL] [--tol-attempts REL]\n"
      "              [--tol-fraction ABS] [--tol-simops REL]\n"
      "              [--no-invariants] [--point ID]\n");
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
    } else if (a == "--jobs-mode") {
      o.jobs_mode = next();
      if (o.jobs_mode != "fork" && o.jobs_mode != "threads") {
        usage("--jobs-mode must be fork or threads");
      }
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
    } else if (a == "--no-invariants") {
      o.invariants = false;
    } else if (a == "--plant-regression") {
      const auto v = support::parse_double(next());
      if (!v || *v <= 0) usage("--plant-regression must be a number > 0");
      o.plant_factor = *v;
    } else if (a == "--plant-slowdown") {
      const auto v = support::parse_double(next());
      if (!v || *v <= 0) usage("--plant-slowdown must be a number > 0");
      o.plant_simops = *v;
    } else if (a == "--tol-throughput") {
      const auto v = support::parse_double(next());
      if (!v || *v < 0) usage("--tol-throughput must be a number >= 0");
      o.tol.throughput_rel = *v;
    } else if (a == "--tol-attempts") {
      const auto v = support::parse_double(next());
      if (!v || *v < 0) usage("--tol-attempts must be a number >= 0");
      o.tol.attempts_rel = *v;
    } else if (a == "--tol-fraction") {
      const auto v = support::parse_double(next());
      if (!v || *v < 0) usage("--tol-fraction must be a number >= 0");
      o.tol.fraction_abs = *v;
    } else if (a == "--tol-simops") {
      const auto v = support::parse_double(next());
      if (!v || *v < 0) usage("--tol-simops must be a number >= 0");
      o.tol.simops_rel = *v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.gate && o.baseline_file.empty()) {
    usage("--gate requires --baseline FILE");
  }
  return o;
}

// Metadata shared by every results document this process emits.
void fill_run_metadata(harness::SuiteResult& r, const Options& o, int jobs) {
  r.tier = o.tier;
  r.duration_scale = harness::env_duration_scale();
  r.telemetry_compiled = tsx::kTelemetryCompiled;
  const sim::MachineConfig machine;
  r.n_cores = machine.n_cores;
  r.smt_per_core = machine.smt_per_core;
  r.ghz = machine.ghz;
  r.host_cores = std::thread::hardware_concurrency();
  r.jobs = jobs;
  r.jobs_mode = o.jobs_mode;
  r.host_threads = o.host_threads;
}

// --point ID: run exactly one registered point and write a single-point
// results document. This is the worker half of --jobs; it applies no plant
// factors and checks no invariants (both are whole-suite concerns the
// parent handles on the merged result).
int run_child(const Options& o) {
  for (const auto& sp : harness::suite_points()) {
    if (sp.id != o.point_id) continue;
    harness::SuiteResult r;
    fill_run_metadata(r, o, /*jobs=*/1);
    const auto t0 = std::chrono::steady_clock::now();
    r.points.push_back(harness::run_suite_point(sp, o.host_threads));
    r.total_wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::FILE* f = std::fopen(o.out_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_suite: cannot open %s\n",
                   o.out_file.c_str());
      return 2;
    }
    harness::write_results_json(r, f);
    std::fclose(f);
    return 0;
  }
  std::fprintf(stderr, "bench_suite: unknown point id %s\n",
               o.point_id.c_str());
  return 2;
}

#if ELISION_SUITE_HAS_SUBPROCESS

std::string self_exe_path(const char* argv0) {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
#endif
  return argv0;
}

// Fans the tier's points out to up to `jobs` concurrent self-invocations
// (one point per child) and merges the fragments in registry order, so the
// merged document is independent of completion order. Returns 0 on success.
int run_parallel(const Options& o, const char* argv0,
                 harness::SuiteResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<harness::SuitePoint> pts =
      harness::suite_points_for(o.tier);
  const std::string exe = self_exe_path(argv0);

  struct Child {
    pid_t pid = -1;
    std::size_t point = 0;
    bool failed = false;
  };
  std::vector<std::string> frags(pts.size());
  std::vector<Child> running;
  std::size_t next = 0;
  bool any_failed = false;

  auto reap_one = [&]() {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    for (auto it = running.begin(); it != running.end(); ++it) {
      if (it->pid != pid) continue;
      const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (!ok) {
        std::fprintf(stderr, "bench_suite: worker for %s failed (status %d)\n",
                     pts[it->point].id.c_str(),
                     WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        any_failed = true;
      }
      running.erase(it);
      return;
    }
  };

  const int jobs = std::min<int>(o.jobs, static_cast<int>(pts.size()));
  while (next < pts.size() || !running.empty()) {
    while (next < pts.size() && static_cast<int>(running.size()) < jobs) {
      frags[next] = o.out_file + ".point" + std::to_string(next) + ".tmp";
      const pid_t pid = ::fork();
      if (pid < 0) {
        std::fprintf(stderr, "bench_suite: fork failed\n");
        return 2;
      }
      if (pid == 0) {
        const std::string ht = std::to_string(o.host_threads);
        ::execl(exe.c_str(), exe.c_str(), "--point", pts[next].id.c_str(),
                "--tier", harness::suite_tier_name(o.tier), "--out",
                frags[next].c_str(), "--host-threads", ht.c_str(), "--quiet",
                static_cast<char*>(nullptr));
        std::fprintf(stderr, "bench_suite: exec %s failed\n", exe.c_str());
        std::_Exit(2);
      }
      running.push_back({pid, next, false});
      ++next;
    }
    if (!running.empty()) reap_one();
  }
  if (any_failed) return 2;

  fill_run_metadata(out, o, o.jobs);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto frag = harness::load_results_file(frags[i]);
    if (!frag || frag->points.size() != 1 ||
        frag->points[0].def.id != pts[i].id) {
      std::fprintf(stderr, "bench_suite: bad fragment %s\n",
                   frags[i].c_str());
      return 2;
    }
    // Keep the registry's point definition (the source of truth; the
    // fragment's parses back to the same fields) and the child's measured
    // metrics.
    out.points.push_back({pts[i], frag->points[0].metrics});
    std::remove(frags[i].c_str());
  }
  out.total_wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return 0;
}

#endif  // ELISION_SUITE_HAS_SUBPROCESS

// --jobs-mode threads: run the tier's points on an in-process host-thread
// pool — no subprocesses, temp-file fragments, or JSON round-trips. Each
// point is an independent simulation writing only its own record slot;
// records are merged in registry order, so the document matches a
// sequential run except for host wall-time fields.
int run_in_process(const Options& o, harness::SuiteResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<harness::SuitePoint> pts =
      harness::suite_points_for(o.tier);
  std::vector<harness::PointRecord> recs(pts.size());
  support::parallel_for_each(
      pts.size(),
      [&](std::size_t i) {
        recs[i] = harness::run_suite_point(pts[i], o.host_threads);
      },
      o.jobs);
  fill_run_metadata(out, o, o.jobs);
  for (auto& rec : recs) out.points.push_back(std::move(rec));
  out.total_wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return 0;
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

  if (!o.point_id.empty()) return run_child(o);

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

#if !ELISION_SUITE_HAS_SUBPROCESS
  if (o.jobs > 1 && o.jobs_mode == "fork") {
    std::fprintf(stderr,
                 "bench_suite: --jobs-mode fork needs fork/exec; "
                 "running sequentially\n");
    o.jobs = 1;
  }
#endif

  harness::Table progress({"id", "Mops/s", "att/op", "nonspec", "episodes"});
  auto progress_row = [&](const harness::SuitePoint& sp,
                          const harness::PointMetrics& m) {
    std::fprintf(stderr, "ran %s\n", sp.id.c_str());
    progress.add_row(
        {sp.id, harness::fmt(m.throughput_ops_per_sec / 1e6, 2),
         harness::fmt(m.attempts_per_op, 2),
         harness::fmt(m.nonspec_fraction, 3),
         harness::fmt_int(m.avalanche_episodes)});
  };

  harness::SuiteResult result;
  if (o.jobs_mode == "threads") {
    const int rc = run_in_process(o, result);
    if (rc != 0) return rc;
    // Plant factors are applied on the merged result so sequential and
    // parallel runs transform identical inputs identically.
    for (auto& p : result.points) {
      p.metrics.throughput_ops_per_sec *= o.plant_factor;
      p.metrics.sim_ops_per_sec *= o.plant_simops;
      if (!o.quiet) progress_row(p.def, p.metrics);
    }
  } else if (o.jobs > 1) {
#if ELISION_SUITE_HAS_SUBPROCESS
    const int rc = run_parallel(o, argv[0], result);
    if (rc != 0) return rc;
    for (auto& p : result.points) {
      p.metrics.throughput_ops_per_sec *= o.plant_factor;
      p.metrics.sim_ops_per_sec *= o.plant_simops;
      if (!o.quiet) progress_row(p.def, p.metrics);
    }
#endif
  } else {
    harness::SuiteRunOptions run_opts;
    run_opts.plant_throughput_factor = o.plant_factor;
    run_opts.plant_simops_factor = o.plant_simops;
    run_opts.host_threads = o.host_threads;
    if (!o.quiet) run_opts.on_point = progress_row;
    result = harness::run_suite(o.tier, run_opts);
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
  std::fclose(f);
  if (!o.quiet) {
    std::printf("results: %zu points -> %s (jobs %d, %.0f ms)\n",
                result.points.size(), o.out_file.c_str(), result.jobs,
                result.total_wall_ms);
  }

  int rc = 0;

  if (o.invariants) {
    for (const auto& inv : harness::check_invariants(result)) {
      if (inv.skipped) {
        if (!o.quiet) {
          std::printf("invariant %-34s SKIP (%s)\n", inv.name.c_str(),
                      inv.detail.c_str());
        }
        continue;
      }
      if (inv.ok) {
        if (!o.quiet) {
          std::printf("invariant %-34s ok   (%s)\n", inv.name.c_str(),
                      inv.detail.c_str());
        }
      } else {
        std::fprintf(stderr, "invariant %-34s FAIL (%s)\n", inv.name.c_str(),
                     inv.detail.c_str());
        rc = 1;
      }
    }
  }

  if (baseline) {
    const auto report =
        harness::compare_to_baseline(result, *baseline, o.tol);
    harness::print_gate_report(report, report.ok() ? stdout : stderr);
    if (!report.ok()) rc = 1;
  }

  return rc;
}

// elide — the command-line front end of the elision library:
//
//   elide tree       one traced red-black tree run: abort telemetry,
//                    avalanche episodes, the adaptive decision trace
//   elide stamp APP  one STAMP application
//   elide schemes    every scheme over TTAS and MCS on one tree
//   elide figure ID  one of the paper's figures/tables (figures.hpp)
//   elide suite      the benchmark suite and its gate (docs/benchmarks.md)
//   elide stress     schedule-exploration stress sweeps (docs/stress.md)
//
// Every flag is a row of the table in flags.cpp, which names the commands
// that read it. A usage error (a flag the command does not read, a
// malformed value, an unknown name) prints the diagnostic and the command's
// usage and exits 2. --trace/--metrics/--out files that cannot be written
// exit 1 (2 for `suite`). tree and schemes run harness::run_rb_point_once,
// so ELISION_BENCH_SCALE multiplies their --ms as it does every figure's.
// `suite` exits 1 if the gate found a regression or a paper-qualitative
// invariant failed; `stress` exits 1 if any case failed. Neither output
// depends on --jobs or --host-threads, except the host wall-time fields.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/rb_workload.hpp"
#include "harness/report.hpp"
#include "harness/suite.hpp"
#include "locks/policy.hpp"
#include "stamp/common.hpp"
#include "stress/stress.hpp"
#include "tsx/telemetry.hpp"

#include "figures.hpp"
#include "flags.hpp"

namespace {

using namespace elision;
using cli::Options;

// Prints `why` and the usage of `cmds`; returns the usage-error status.
int usage_error(unsigned cmds, const std::string& why) {
  std::string text = "error: " + why + "\n\n" + cli::usage(cmds);
  if ((cmds & cli::kStamp) != 0) {
    text += "\nstamp apps:";
    for (const char* app : stamp::kAllAppNames) text += std::string(" ") + app;
    text += "\n";
  }
  if ((cmds & cli::kFigure) != 0) {
    text += "\nfigures:";
    for (const figures::Figure& f : figures::all()) {
      text += std::string(" ") + f.id;
    }
    text += "\n";
  }
  std::fputs(text.c_str(), stderr);
  return 2;
}

// The tree the `tree` and `schemes` flags describe.
harness::RbPoint tree_point(const Options& o) {
  harness::RbPoint p;
  p.size = o.size;
  p.update_pct = o.updates;
  p.threads = o.threads;
  p.duration_sec = o.ms / 1e3;
  p.seed = o.seed;
  p.avalanche = {.window_cycles = o.window, .min_victims = o.min_victims};
  return p;
}

// Opens `path` for writing and hands `dump` the stream and whether the file
// is JSON (a .json suffix) rather than CSV; false if it cannot be written.
template <typename Dump>
bool write_file(const std::string& path, Dump&& dump) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  dump(f, path.ends_with(".json"));
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int export_metrics(const Options& o, const harness::MetricsRegistry& registry) {
  if (o.metrics_file.empty()) return 0;
  const bool ok = write_file(o.metrics_file, [&](std::FILE* f, bool json) {
    json ? registry.export_json(f) : registry.export_csv(f);
  });
  if (!ok) return 1;
  std::printf("metrics: %zu series -> %s\n", registry.entries().size(),
              o.metrics_file.c_str());
  return 0;
}

// Prints the controller's migration history: one line per recorded
// decision, oldest first (docs/adaptive.md documents the columns).
void print_adaptive_trace(const locks::ElisionPolicy& policy,
                          const locks::AdaptiveController& ctl) {
  std::printf(
      "adaptive controller (window=%d up=%d down=%d dwell=%d): "
      "%llu migration(s), final mode %s\n",
      policy.adapt.window, policy.adapt.up_pct, policy.adapt.down_pct,
      policy.adapt.dwell,
      static_cast<unsigned long long>(ctl.total_migrations()),
      locks::adaptive_mode_name(ctl.mode()));
  for (const auto& d : ctl.decisions()) {
    std::printf("  at=%-12llu %-8s -> %-8s rate=%3d%%  %s\n",
                static_cast<unsigned long long>(d.at),
                locks::adaptive_mode_name(d.from),
                locks::adaptive_mode_name(d.to), d.abort_rate_pct, d.reason);
  }
  if (ctl.decisions_dropped() != 0) {
    std::printf("  ... %llu earlier migration(s) beyond the trace bound\n",
                static_cast<unsigned long long>(ctl.decisions_dropped()));
  }
}

int cmd_tree(const Options& o) {
  harness::RbPoint p = tree_point(o);
  p.scheme = *locks::ElisionPolicy::parse(o.scheme);
  p.lock = *locks::find_lock(o.lock);
  p.hardware_extension = o.hwext;
  tsx::Telemetry telemetry;
  p.telemetry_sink = &telemetry;
  locks::AdaptiveController ctl;
  if (p.scheme.scheme == locks::Scheme::kAdaptive) p.adaptive_out = &ctl;
  const harness::RunStats stats = harness::run_rb_point_once(p);

  std::printf("workload:   red-black tree, size %zu, %d%% updates, %d threads\n",
              p.size, o.updates, o.threads);
  std::printf("scheme:     %s on %s%s\n", p.scheme.spec().c_str(),
              locks::lock_name(p.lock),
              o.hwext ? " + Ch.7 hardware extension" : "");
  std::printf("throughput: %.2f Mops/s  (%llu ops in %.2f simulated ms)\n",
              stats.throughput() / 1e6,
              static_cast<unsigned long long>(stats.ops),
              stats.seconds() * 1e3);
  std::printf("attempts/op %.2f   non-speculative %.1f%%\n",
              stats.attempts_per_op(), 100 * stats.nonspec_fraction());
  std::printf("tx: %llu begun, %llu committed, %llu aborted",
              static_cast<unsigned long long>(stats.tx.begins),
              static_cast<unsigned long long>(stats.tx.commits),
              static_cast<unsigned long long>(stats.tx.aborts));
  for (int c = 0; c < static_cast<int>(tsx::AbortCause::kCauseCount); ++c) {
    if (stats.tx.aborts_by_cause[c] == 0) continue;
    std::printf("  %s=%llu", to_string(static_cast<tsx::AbortCause>(c)),
                static_cast<unsigned long long>(stats.tx.aborts_by_cause[c]));
  }
  std::printf("\n");
  harness::print_telemetry_summary(stats);
  harness::print_episodes(stats.episodes);
  if (p.adaptive_out != nullptr) print_adaptive_trace(p.scheme, ctl);
  if (!o.trace_file.empty()) {
    const bool ok = write_file(o.trace_file, [&](std::FILE* f, bool json) {
      json ? telemetry.dump_json(f) : telemetry.dump_csv(f);
    });
    if (!ok) return 1;
    std::printf("events: %llu recorded (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(telemetry.total_recorded()),
                static_cast<unsigned long long>(telemetry.total_dropped()),
                o.trace_file.c_str());
  }
  harness::MetricsRegistry registry;
  registry.record(p.scheme.spec(), locks::lock_name(p.lock), stats);
  return export_metrics(o, registry);
}

int cmd_stamp(const Options& o) {
  const std::string& app = o.positional;
  if (std::ranges::find(stamp::kAllAppNames, app) ==
      std::end(stamp::kAllAppNames)) {
    return usage_error(cli::kStamp, "unknown STAMP app " + app);
  }
  stamp::StampConfig cfg;
  cfg.threads = o.threads;
  cfg.scale = o.scale;
  // STAMP is scheme-only.
  cfg.scheme = locks::ElisionPolicy::parse(o.scheme)->scheme;
  // The table checked the name.
  cfg.lock = *locks::find_lock(o.lock);
  if (!locks::StampLocks::contains(cfg.lock)) {
    return usage_error(cli::kStamp,
                       "stamp supports --lock " +
                           cli::lock_slugs(locks::StampLocks::kIds, "|"));
  }
  const auto r = stamp::run_app(app, cfg);
  std::printf("app:        %s (scale %.2f, %d threads)\n", app.c_str(),
              o.scale, o.threads);
  std::printf("scheme:     %s on %s\n", locks::scheme_name(cfg.scheme),
              locks::lock_name(cfg.lock));
  std::printf("run time:   %.3f simulated ms\n",
              1e3 * r.seconds(cfg.machine.ghz));
  std::printf("critical sections: %llu   attempts/op %.2f   "
              "non-speculative %.1f%%\n",
              static_cast<unsigned long long>(r.ops), r.attempts_per_op(),
              100 * r.nonspec_fraction());
  std::printf("checksum:   %llu   invariants: %s\n",
              static_cast<unsigned long long>(r.checksum),
              r.invariants_ok ? "ok" : "VIOLATED");
  return r.invariants_ok ? 0 : 1;
}

int cmd_schemes(const Options& o) {
  std::printf("All schemes on a %zu-node tree, %d%% updates, %d threads "
              "(TTAS / MCS Mops/s):\n\n",
              static_cast<std::size_t>(o.size), o.updates, o.threads);
  harness::Table table({"scheme", "TTAS Mops/s", "MCS Mops/s"});
  harness::MetricsRegistry registry;
  for (const locks::Scheme s : locks::kAllSchemes) {
    if (s == locks::Scheme::kHleScmNested) continue;  // needs hw flag
    harness::RbPoint p = tree_point(o);
    p.scheme = locks::ElisionPolicy::from_scheme(s);
    std::vector<std::string> row = {p.scheme.spec()};
    for (const auto lock : {locks::LockId::kTtas, locks::LockId::kMcs}) {
      p.lock = lock;
      const harness::RunStats stats = harness::run_rb_point_once(p);
      registry.record(p.scheme.spec(), locks::lock_name(lock), stats);
      row.push_back(harness::fmt(stats.throughput() / 1e6, 2));
    }
    table.add_row(row);
  }
  table.print();
  return export_metrics(o, registry);
}

int cmd_figure(const Options& o) {
  const figures::Figure* f = figures::find(o.positional);
  if (f == nullptr) {
    return usage_error(cli::kFigure, "unknown figure " + o.positional);
  }
  harness::banner(f->title, f->caption);
  f->render();
  return 0;
}

void print_point_list(harness::SuiteTier tier) {
  std::vector<std::string> header = {"id", "tier", "figure", "kind"};
  header.insert(header.end(), std::begin(harness::kPointListColumns),
                std::end(harness::kPointListColumns));
  harness::Table table(header);
  for (const auto& sp : harness::suite_points_for(tier)) {
    std::vector<std::string> row = {sp.id, harness::suite_tier_name(sp.tier),
                                    sp.figure,
                                    harness::point_kind_name(sp.kind())};
    for (const char* column : harness::kPointListColumns) {
      row.push_back(harness::point_column(sp, column));
    }
    table.add_row(std::move(row));
  }
  table.print();
}

int cmd_suite(const Options& o) {
  if (o.gate && o.baseline_file.empty()) {
    return usage_error(cli::kSuite, "--gate requires --baseline FILE");
  }
  if (o.gate && !o.point.empty()) {
    return usage_error(cli::kSuite,
                       "--gate cannot be combined with --point (every other "
                       "baseline point would read as coverage loss)");
  }
  const harness::SuiteTier tier = *harness::suite_tier_from_name(o.tier);
  if (o.list) {
    print_point_list(tier);
    return 0;
  }

  // Parse the baseline before running anything, so a malformed one fails
  // fast (exit 2) instead of after the whole tier.
  std::optional<harness::SuiteResult> baseline;
  if (o.gate) {
    baseline = harness::load_results_file(o.baseline_file);
    if (!baseline) {
      std::fprintf(stderr, "elide suite: cannot parse baseline %s\n",
                   o.baseline_file.c_str());
      return 2;
    }
  }

  std::vector<harness::SuitePoint> points = harness::suite_points_for(tier);
  if (!o.point.empty()) {
    std::erase_if(points, [&](const harness::SuitePoint& sp) {
      return sp.id != o.point;
    });
    if (points.empty()) {
      return usage_error(cli::kSuite, "no point " + o.point + " in the " +
                                          o.tier + " tier");
    }
  }

  harness::SuiteResult result =
      harness::run_suite(points, o.jobs, o.host_threads);
  harness::Table progress({"id", "Mops/s", "att/op", "nonspec", "episodes"});
  for (auto& p : result.points) {
    auto& m = p.metrics;
    m.throughput_ops_per_sec *= o.plant_regression;
    m.sim_ops_per_sec *= o.plant_slowdown;
    progress.add_row({p.def.id, harness::fmt(m.throughput_ops_per_sec / 1e6, 2),
                      harness::fmt(m.attempts_per_op, 2),
                      harness::fmt(m.nonspec_fraction, 3),
                      harness::fmt_int(m.avalanche_episodes)});
  }
  if (!o.quiet) progress.print();
  if (o.plant_regression != 1.0 || o.plant_slowdown != 1.0) {
    std::fprintf(stderr,
                 "elide suite: self-check mode: throughputs scaled by %.3f, "
                 "sim_ops_per_sec by %.3f\n",
                 o.plant_regression, o.plant_slowdown);
  }

  if (!write_file(o.out_file, [&](std::FILE* f, bool) {
        std::fputs(harness::results_json(result).c_str(), f);
      })) {
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

// The items a stress list names, or all of them for an empty list.
template <typename T, typename Find>
std::vector<T> pick(const std::vector<std::string>& names, std::vector<T> all,
                    Find find) {
  if (names.empty()) return all;
  std::vector<T> out;
  for (const std::string& name : names) out.push_back(*find(name));
  return out;
}

int cmd_stress(const Options& o) {
  stress::StressOptions so;
  so.threads = o.threads;
  so.host_threads = o.host_threads;
  so.duration_ms = o.duration_ms;
  so.perturb_probability = o.prob;
  so.perturb_max_delay_cycles = o.max_delay;
  so.minimize = !o.no_minimize;
  // The table checked every name.
  const auto policies =
      pick(o.schemes, stress::all_policies(), locks::ElisionPolicy::parse);
  const auto lock_ids =
      pick(o.locks, locks::lock_ids(0, locks::kPlanted), locks::find_lock);
  const auto workloads =
      pick(o.workloads, stress::all_workloads(), cli::find_stress_workload);
  // The planted-bug locks run only non-speculatively, and only on the
  // workloads they cannot make loop (run_case checks both).
  const bool planted = std::ranges::any_of(lock_ids, [](locks::LockId id) {
    return locks::lock_has(id, locks::kPlanted);
  });
  const std::string planted_locks =
      "--locks " + cli::lock_slugs(locks::lock_ids(locks::kPlanted), " and ");
  if (planted && !std::ranges::all_of(policies, [](const auto& p) {
        return p.scheme == locks::Scheme::kStandard;
      })) {
    return usage_error(cli::kStress, planted_locks + " need --schemes standard");
  }
  if (planted && !std::ranges::all_of(workloads, stress::planted_may_run)) {
    std::string looping;
    for (const stress::Workload w : stress::all_workloads()) {
      if (stress::planted_may_run(w)) continue;
      looping += (looping.empty() ? "" : ",") + std::string(stress::workload_name(w));
    }
    return usage_error(cli::kStress,
                       planted_locks + " cannot run --workloads " + looping +
                           " (a structure they corrupt can loop or crash)");
  }

  int done = 0;
  const int total = o.seeds * static_cast<int>(policies.size()) *
                    static_cast<int>(lock_ids.size()) *
                    static_cast<int>(workloads.size());
  const stress::SweepStats s = stress::sweep(
      so, policies, lock_ids, workloads, o.first_seed, o.seeds,
      [&](const stress::StressCase& c, const stress::RunOutcome& out) {
        ++done;
        if (!out.ok()) {
          std::printf("[%d/%d] VIOLATION %s\n", done, total,
                      stress::case_name(c).c_str());
        } else if (!o.quiet && done % 100 == 0) {
          std::printf("[%d/%d] ok\n", done, total);
          std::fflush(stdout);
        }
      });

  std::printf("%d runs, %llu total ops, %zu failing\n", s.runs,
              static_cast<unsigned long long>(s.total_ops),
              s.failures.size());
  for (const stress::FailureReport& f : s.failures) {
    std::printf("FAIL %s (minimized budget=%llu)\n",
                stress::case_name(f.c).c_str(),
                static_cast<unsigned long long>(f.minimized_points));
    for (const std::string& v : f.outcome.violations) {
      std::printf("     %s\n", v.c_str());
    }
  }
  return s.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error(cli::kAllCommands, "missing command");
  const std::string_view name = argv[1];
  const auto c = std::ranges::find(cli::commands(), name, &cli::CommandInfo::name);
  if (c == cli::commands().end()) {
    return usage_error(cli::kAllCommands,
                       std::string("unknown command ") + argv[1]);
  }
  Options o;
  const std::vector<const char*> args(argv + 2, argv + argc);
  if (const auto diag = cli::parse(c->cmd, args, o)) {
    return usage_error(c->cmd, *diag);
  }
  switch (c->cmd) {
    case cli::kTree: return cmd_tree(o);
    case cli::kStamp: return cmd_stamp(o);
    case cli::kSchemes: return cmd_schemes(o);
    case cli::kFigure: return cmd_figure(o);
    case cli::kSuite: return cmd_suite(o);
    case cli::kStress: return cmd_stress(o);
  }
  return 2;
}

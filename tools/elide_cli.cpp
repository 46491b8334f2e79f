// elide — command-line explorer for the elision library.
//
// Run any of the paper's workloads with your own parameters:
//
//   elide tree   [--lock L] [--scheme S] [--threads N] [--size K]
//                [--updates PCT] [--ms VIRTUAL_MS] [--seed X] [--hwext]
//                [--window CYCLES] [--min-victims N]
//                [--trace FILE] [--metrics FILE]
//   elide stamp  APP [--lock L] [--scheme S] [--threads N] [--scale X]
//   elide schemes [--size K] [--updates PCT] [--threads N] [--ms VIRTUAL_MS]
//                 [--metrics FILE]                          (compare all)
//   elide figure  ID         (one of the paper's figures/tables; figures.hpp)
//
// Locks: ttas mcs ticket ticket-adj clh clh-adj
// Schemes: any canonical policy spec (locks/policy.hpp), including tuned
//          ones like `hle:spec-attempts=4` and the adaptive controller
//          (`adaptive[:window=N:up=N:down=N:dwell=N]`).
//
// `tree` always records abort telemetry (tsx/telemetry.hpp; it never moves
// virtual time) and prints its summary and the avalanche episodes found
// with the --window/--min-victims detector. An adaptive scheme also prints
// the controller's decision trace (docs/adaptive.md). --trace FILE writes
// the raw event log and --metrics FILE the MetricsRegistry export of every
// run (`schemes` exports all of its runs); either is JSON when FILE ends
// in .json and CSV otherwise.
//
// tree and schemes run harness::run_rb_point_once, so ELISION_BENCH_SCALE
// multiplies their --ms as it does for every RB-tree point, and every
// figure's virtual durations.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/rb_workload.hpp"
#include "harness/report.hpp"
#include "locks/policy.hpp"
#include "sim/machine_config.hpp"
#include "stamp/common.hpp"
#include "support/parse.hpp"
#include "tsx/telemetry.hpp"

#include "figures.hpp"

namespace {

using namespace elision;

struct Options {
  harness::LockSel lock = harness::LockSel::kTtas;
  std::string scheme = "hle-scm";
  int threads = 8;
  std::size_t size = 1024;
  int updates = 20;
  double ms = 2.0;
  std::uint64_t seed = 42;
  double scale = 1.0;
  bool hwext = false;
  tsx::AvalancheConfig avalanche;
  std::string trace_file;
  std::string metrics_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(
      stderr,
      "usage:\n"
      "  elide tree    [--lock L] [--scheme S] [--threads N] [--size K]\n"
      "                [--updates PCT] [--ms MS] [--seed X] [--hwext]\n"
      "                [--window CYCLES] [--min-victims N]\n"
      "                [--trace FILE] [--metrics FILE]\n"
      "  elide stamp   APP [--lock ttas|mcs] [--scheme S] [--threads N]\n"
      "                [--scale X]\n"
      "  elide schemes [--size K] [--updates PCT] [--threads N] [--ms MS]\n"
      "                [--metrics FILE]\n"
      "  elide figure  ID\n"
      "\n"
      "--trace writes the abort-telemetry event log, --metrics the metrics\n"
      "registry: JSON if FILE ends in .json, CSV otherwise\n"
      "\n"
      "locks:   ttas mcs ticket ticket-adj clh clh-adj\n"
      "schemes: any canonical policy spec (locks/policy.hpp), e.g.\n"
      "         standard hle hle-scm pes-slr opt-slr opt-slr-scm rtm-elide\n"
      "         hle-scm-nested hle-gscm adaptive hle:spec-attempts=4\n"
      "         adaptive:window=16:up=50:down=10:dwell=4\n"
      "stamp apps: genome intruder kmeans_high kmeans_low ssca2\n"
      "            vacation_high vacation_low labyrinth\n"
      "figures:");
  for (const figures::Figure& f : figures::all()) {
    std::fprintf(stderr, " %s", f.id);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv, int first, std::string* positional) {
  Options o;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--lock") {
      const std::string v = next();
      const auto lock = harness::parse_lock_sel(v);
      if (!lock) usage(("unknown lock " + v).c_str());
      o.lock = *lock;
    } else if (a == "--scheme") {
      o.scheme = next();
    } else if (a == "--threads") {
      const auto v = support::parse_int(next());
      if (!v) usage("--threads must be a decimal integer");
      o.threads = *v;
    } else if (a == "--size") {
      const auto v = support::parse_u64(next());
      if (!v || *v < 1) usage("--size must be a decimal integer >= 1");
      o.size = static_cast<std::size_t>(*v);
    } else if (a == "--updates") {
      const auto v = support::parse_int(next());
      if (!v) usage("--updates must be a decimal integer");
      o.updates = *v;
    } else if (a == "--ms") {
      const auto v = support::parse_double(next());
      if (!v || *v <= 0) usage("--ms must be a number > 0");
      o.ms = *v;
    } else if (a == "--seed") {
      const auto v = support::parse_u64(next());
      if (!v) usage("--seed must be a decimal integer");
      o.seed = *v;
    } else if (a == "--scale") {
      const auto v = support::parse_double(next());
      if (!v || *v <= 0) usage("--scale must be a number > 0");
      o.scale = *v;
    } else if (a == "--hwext") {
      o.hwext = true;
    } else if (a == "--window") {
      const auto v = support::parse_u64(next());
      if (!v || *v < 1) usage("--window must be a decimal integer >= 1");
      o.avalanche.window_cycles = *v;
    } else if (a == "--min-victims") {
      const auto v = support::parse_int(next());
      if (!v || *v < 1) usage("--min-victims must be a decimal integer >= 1");
      o.avalanche.min_victims = *v;
    } else if (a == "--trace") {
      o.trace_file = next();
    } else if (a == "--metrics") {
      o.metrics_file = next();
    } else if (!a.empty() && a[0] != '-' && positional != nullptr &&
               positional->empty()) {
      *positional = a;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.threads < 1 || o.threads > sim::kMaxSimThreads) {
    usage(("--threads must be in [1," + std::to_string(sim::kMaxSimThreads) +
           "] (kMaxSimThreads)")
              .c_str());
  }
  if (o.updates < 0 || o.updates > 100) usage("--updates must be in [0,100]");
  return o;
}

// One shared policy-spec grammar across every CLI (see locks/policy.hpp):
// `<scheme>[+shared][:knob=N...]`, e.g. "hle-scm:scm-retries=5". The scheme
// spellings are the canonical scheme_slug() ones listed in usage().
locks::ElisionPolicy parse_policy(const std::string& s) {
  const std::optional<locks::ElisionPolicy> p = locks::ElisionPolicy::parse(s);
  if (!p) usage(("unknown policy spec " + s).c_str());
  return *p;
}

// The tree the `tree` and `schemes` flags describe.
harness::RbPoint tree_point(const Options& o) {
  harness::RbPoint p;
  p.size = o.size;
  p.update_pct = o.updates;
  p.threads = o.threads;
  p.duration_sec = o.ms / 1e3;
  p.seed = o.seed;
  p.avalanche = o.avalanche;
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
  p.scheme = parse_policy(o.scheme);
  p.lock = o.lock;
  p.hardware_extension = o.hwext;
  tsx::Telemetry telemetry;
  p.telemetry_sink = &telemetry;
  locks::AdaptiveController ctl;
  if (p.scheme.scheme == locks::Scheme::kAdaptive) p.adaptive_out = &ctl;
  const harness::RunStats stats = harness::run_rb_point_once(p);

  std::printf("workload:   red-black tree, size %zu, %d%% updates, %d threads\n",
              o.size, o.updates, o.threads);
  std::printf("scheme:     %s on %s%s\n", p.scheme.spec().c_str(),
              harness::lock_sel_name(o.lock),
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
  registry.record(p.scheme.spec(), harness::lock_sel_name(o.lock), stats);
  return export_metrics(o, registry);
}

int cmd_stamp(const Options& o, const std::string& app) {
  if (app.empty()) usage("stamp requires an APP argument");
  bool known = false;
  for (const char* name : stamp::kAllAppNames) {
    if (app == name) known = true;
  }
  if (!known) usage(("unknown STAMP app " + app).c_str());
  stamp::StampConfig cfg;
  cfg.threads = o.threads;
  cfg.scale = o.scale;
  cfg.scheme = parse_policy(o.scheme).scheme;  // STAMP is scheme-only
  if (o.lock == harness::LockSel::kTtas) {
    cfg.lock = stamp::LockKind::kTtas;
  } else if (o.lock == harness::LockSel::kMcs) {
    cfg.lock = stamp::LockKind::kMcs;
  } else {
    usage("stamp supports --lock ttas|mcs");
  }
  const auto r = stamp::run_app(app, cfg);
  std::printf("app:        %s (scale %.2f, %d threads)\n", app.c_str(),
              o.scale, o.threads);
  std::printf("scheme:     %s on %s\n", locks::scheme_name(cfg.scheme),
              stamp::lock_name(cfg.lock));
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
              o.size, o.updates, o.threads);
  harness::Table table({"scheme", "TTAS Mops/s", "MCS Mops/s"});
  harness::MetricsRegistry registry;
  for (const locks::Scheme s : locks::kAllSchemes) {
    if (s == locks::Scheme::kHleScmNested) continue;  // needs hw flag
    harness::RbPoint p = tree_point(o);
    p.scheme = locks::ElisionPolicy::from_scheme(s);
    std::vector<std::string> row = {p.scheme.spec()};
    for (const auto lock : {harness::LockSel::kTtas, harness::LockSel::kMcs}) {
      p.lock = lock;
      const harness::RunStats stats = harness::run_rb_point_once(p);
      registry.record(p.scheme.spec(), harness::lock_sel_name(lock), stats);
      row.push_back(harness::fmt(stats.throughput() / 1e6, 2));
    }
    table.add_row(row);
  }
  table.print();
  return export_metrics(o, registry);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string cmd = argv[1];
  if (cmd == "figure") {
    if (argc != 3) usage("figure takes exactly one ID");
    const figures::Figure* f = figures::find(argv[2]);
    if (f == nullptr) usage((std::string("unknown figure ") + argv[2]).c_str());
    harness::banner(f->title, f->caption);
    f->render();
    return 0;
  }
  std::string positional;
  const Options o = parse(argc, argv, 2, &positional);
  if (cmd == "tree") return cmd_tree(o);
  if (cmd == "stamp") return cmd_stamp(o, positional);
  if (cmd == "schemes") return cmd_schemes(o);
  usage(("unknown command " + cmd).c_str());
}

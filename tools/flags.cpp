#include "flags.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <type_traits>

#include "harness/rb_workload.hpp"
#include "harness/suite.hpp"
#include "locks/policy.hpp"
#include "sim/machine_config.hpp"
#include "support/parallel.hpp"
#include "support/parse.hpp"

namespace elision::cli {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr CommandInfo kCommands[] = {
    {kTree, "tree", nullptr},      {kStamp, "stamp", "APP"},
    {kSchemes, "schemes", nullptr}, {kFigure, "figure", "ID"},
    {kSuite, "suite", nullptr},    {kStress, "stress", nullptr},
};

// Where usage() starts a flag's help, and the width it keeps to.
constexpr std::size_t kHelpColumn = 24;
constexpr std::size_t kWidth = 78;

// tree and stamp run the keyed-set runner's locks (stamp narrows them
// further, in its command).
bool known_lock(std::string_view s) {
  const auto id = locks::find_lock(s);
  return id && locks::ExclusiveLocks::contains(*id);
}
// Whether `parse` reads the name.
template <auto parse>
bool known(std::string_view s) {
  return parse(s).has_value();
}

constexpr unsigned kRbRuns = kTree | kSchemes;

// The --lock and --locks help: the registry's slugs.
const std::string kLockHelp = lock_slugs(locks::ExclusiveLocks::kIds, " ") +
                              " (stamp: " +
                              lock_slugs(locks::StampLocks::kIds, " ") + ")";
const std::string kLocksHelp =
    lock_slugs(locks::AllLocks::kIds, " ", kWidth - kHelpColumn) +
    " (any case)";

const Flag kFlags[] = {
    // Red-black tree runs (tree, schemes) and STAMP apps.
    {"--lock", Kind::kString, kTree | kStamp, &Options::lock, "L",
     kLockHelp.c_str(), {}, known_lock},
    {"--scheme", Kind::kString, kTree | kStamp, &Options::scheme, "S",
     "policy spec (locks/policy.hpp), e.g. hle-scm,\n"
     "hle:spec-attempts=4 or adaptive:window=16:up=50",
     {}, known<locks::ElisionPolicy::parse>},
    {"--threads", Kind::kInt, kRbRuns | kStamp | kStress, &Options::threads,
     "N", "simulated threads", {1, sim::kMaxSimThreads}},
    {"--size", Kind::kU64, kRbRuns, &Options::size, "K", "tree size",
     {1}},
    {"--updates", Kind::kInt, kRbRuns, &Options::updates, "PCT",
     "update share of the operations", {0, 100}},
    {"--ms", Kind::kDouble, kRbRuns, &Options::ms, "MS",
     "virtual milliseconds per run", {0, kInf, true}},
    {"--seed", Kind::kU64, kRbRuns, &Options::seed, "X", "machine seed"},
    {"--scale", Kind::kDouble, kStamp, &Options::scale, "X",
     "input scale", {0, kInf, true}},
    {"--hwext", Kind::kBool, kTree, &Options::hwext, "",
     "the Ch.7 hardware extension"},
    {"--window", Kind::kU64, kTree, &Options::window, "CYCLES",
     "longest gap inside an avalanche episode", {1}},
    {"--min-victims", Kind::kInt, kTree, &Options::min_victims, "N",
     "fewest victims an avalanche episode has", {1}},
    {"--trace", Kind::kString, kTree, &Options::trace_file, "FILE",
     "write the abort-telemetry event log\n(JSON for *.json, else CSV)"},
    {"--metrics", Kind::kString, kRbRuns, &Options::metrics_file, "FILE",
     "write the metrics registry\n(JSON for *.json, else CSV)"},
    // The benchmark suite.
    {"--tier", Kind::kString, kSuite, &Options::tier, "T", "smoke or full",
     {}, known<harness::suite_tier_from_name>},
    {"--point", Kind::kString, kSuite, &Options::point, "ID",
     "run only this point of the tier (not with --gate)"},
    {"--jobs", Kind::kInt, kSuite, &Options::jobs, "N",
     "run N points at a time", {1}},
    {"--host-threads", Kind::kThreads, kSuite | kStress,
     &Options::host_threads, "N",
     "host threads per point's seeds (stress: across cases);\n"
     "0 = all hardware threads; output is identical to 1"},
    {"--out", Kind::kString, kSuite, &Options::out_file, "FILE",
     "results JSON (default BENCH_results.json)"},
    {"--baseline", Kind::kString, kSuite, &Options::baseline_file, "FILE",
     "baseline results for --gate"},
    {"--gate", Kind::kBool, kSuite, &Options::gate, "",
     "compare to --baseline; exit 1 on a regression"},
    {"--list", Kind::kBool, kSuite, &Options::list, "",
     "print the tier's points and exit"},
    {"--quiet", Kind::kBool, kSuite | kStress, &Options::quiet, "",
     "no progress output; failures and results only"},
    {"--plant-regression", Kind::kDouble, kSuite, &Options::plant_regression,
     "F", "multiply every throughput before gating", {0, kInf, true}},
    {"--plant-slowdown", Kind::kDouble, kSuite, &Options::plant_slowdown,
     "F", "multiply every sim_ops_per_sec before gating", {0, kInf, true}},
    {"--tol-simops", Kind::kDouble, kSuite, &Options::tol_simops, "REL",
     "sim_ops_per_sec gate tolerance for same-host runs", {0}},
    // Stress sweeps.
    {"--schemes", Kind::kList, kStress, &Options::schemes, "all|SPEC,...",
     "policy specs, as --scheme", {}, known<locks::ElisionPolicy::parse>},
    {"--locks", Kind::kList, kStress, &Options::locks, "all|NAME,...",
     kLocksHelp.c_str(), {}, known<locks::find_lock>},
    {"--workloads", Kind::kList, kStress, &Options::workloads,
     "all|NAME,...", "counter hashtable btree sharded-kv", {},
     known<find_stress_workload>},
    {"--seeds", Kind::kInt, kStress, &Options::seeds, "N",
     "perturbation seeds per case", {1}},
    {"--first-seed", Kind::kU64, kStress, &Options::first_seed, "S",
     "first perturbation seed"},
    {"--duration-ms", Kind::kDouble, kStress, &Options::duration_ms, "MS",
     "virtual milliseconds per case", {0, kInf, true}},
    {"--prob", Kind::kDouble, kStress, &Options::prob, "P",
     "perturbation probability per access", {0, 1}},
    {"--max-delay", Kind::kU64, kStress, &Options::max_delay, "CYCLES",
     "longest injected delay"},
    {"--no-minimize", Kind::kBool, kStress, &Options::no_minimize, "",
     "report failing seeds without shrinking them"},
    {"--telemetry", Kind::kBool, kStress, &Options::telemetry, "",
     "count avalanche episodes per case"},
};

std::string number(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", x);
  return buf;
}

// A numeric row's range as "in [1, 256]", ">= 1" or "> 0"; empty for other
// rows and for an integer row that takes any value.
std::string describe(const Flag& f) {
  const Range& r = f.range;
  if (f.kind == Kind::kBool || f.kind == Kind::kString ||
      f.kind == Kind::kList) {
    return "";
  }
  if (std::isfinite(r.hi)) {
    return "in " + std::string(r.lo_open ? "(" : "[") + number(r.lo) + ", " +
           number(r.hi) + "]";
  }
  if (r.lo == 0 && !r.lo_open && f.kind != Kind::kDouble) return "";
  return (r.lo_open ? "> " : ">= ") + number(r.lo);
}

bool in_range(const Range& r, double v) {
  return (r.lo_open ? v > r.lo : v >= r.lo) && v <= r.hi;
}

template <typename T>
std::optional<std::string> set_number(const Flag& f, std::optional<T> v,
                                      Options& o) {
  if (!v || !in_range(f.range, static_cast<double>(*v))) {
    const std::string range = describe(f);
    return std::string(f.name) + " must be " +
           (f.kind == Kind::kDouble ? "a number" : "a decimal integer") +
           (range.empty() ? "" : " " + range);
  }
  if (f.kind == Kind::kThreads && *v == 0) {
    o.*std::get<int Options::*>(f.field) = support::host_hardware_threads();
  } else if constexpr (std::is_same_v<T, double>) {
    if (const auto* m = std::get_if<double Options::*>(&f.field)) {
      o.**m = *v;
    } else {
      o.*std::get<std::optional<double> Options::*>(f.field) = *v;
    }
  } else {
    o.*std::get<T Options::*>(f.field) = *v;
  }
  return std::nullopt;
}

std::optional<std::string> unknown_value(const Flag& f, std::string_view v) {
  return "unknown value for " + std::string(f.name) + ": '" + std::string(v) +
         "'";
}

std::optional<std::string> set_value(const Flag& f, const std::string& text,
                                     Options& o) {
  switch (f.kind) {
    case Kind::kBool:
      break;
    case Kind::kInt:
    case Kind::kThreads:
      return set_number(f, support::parse_int(text), o);
    case Kind::kU64:
      return set_number(f, support::parse_u64(text), o);
    case Kind::kDouble:
      return set_number(f, support::parse_double(text), o);
    case Kind::kString:
      if (f.known != nullptr && !f.known(text)) return unknown_value(f, text);
      o.*std::get<std::string Options::*>(f.field) = text;
      return std::nullopt;
    case Kind::kList: {
      std::vector<std::string> items;
      std::size_t start = 0;
      while (text != "all") {
        const std::size_t comma = std::min(text.find(',', start), text.size());
        items.push_back(text.substr(start, comma - start));
        if (f.known != nullptr && !f.known(items.back())) {
          return unknown_value(f, items.back());
        }
        if (comma == text.size()) break;
        start = comma + 1;
      }
      o.*std::get<std::vector<std::string> Options::*>(f.field) = items;
      return std::nullopt;
    }
  }
  o.*std::get<bool Options::*>(f.field) = true;
  return std::nullopt;
}

}  // namespace

std::span<const CommandInfo> commands() { return kCommands; }

std::span<const Flag> flags() { return kFlags; }

std::optional<std::string> parse(Command cmd,
                                 std::span<const char* const> args,
                                 Options& o) {
  const CommandInfo& c = *std::ranges::find(kCommands, cmd, &CommandInfo::cmd);
  const std::string prefix = std::string("elide ") + c.name;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string a = args[i];
    if (!a.empty() && a[0] != '-') {
      if (c.positional == nullptr || !o.positional.empty()) {
        return prefix + ": unexpected argument " + a;
      }
      o.positional = a;
      continue;
    }
    const Flag* f = std::ranges::find(kFlags, a, &Flag::name);
    if (f == std::end(kFlags)) return prefix + ": unknown flag '" + a + "'";
    if ((f->commands & cmd) == 0) return prefix + " does not take " + a;
    std::string value;
    if (f->kind != Kind::kBool) {
      if (i + 1 == args.size()) return "missing value for " + a;
      value = args[++i];
    }
    if (auto diag = set_value(*f, value, o)) return diag;
  }
  if (c.positional != nullptr && o.positional.empty()) {
    return prefix + " requires " + c.positional;
  }
  return std::nullopt;
}

std::string usage(unsigned cmds) {
  std::string out = "usage:\n";
  for (const CommandInfo& c : kCommands) {
    if ((cmds & c.cmd) == 0) continue;
    std::string line = "  elide " + std::string(c.name);
    line.resize(std::max<std::size_t>(line.size(), 15), ' ');
    if (c.positional != nullptr) line += std::string(" ") + c.positional;
    for (const Flag& f : kFlags) {
      if ((f.commands & c.cmd) == 0) continue;
      std::string item = std::string(" [") + f.name;
      if (*f.metavar != '\0') item += std::string(" ") + f.metavar;
      item += "]";
      if (line.size() + item.size() > kWidth) {
        out += line + "\n";
        line = std::string(15, ' ');
      }
      line += item;
    }
    out += line + "\n";
  }
  if (!std::has_single_bit(cmds)) return out;
  // One command: a line per flag, its range generated from the row.
  std::string rows;
  for (const Flag& f : kFlags) {
    if ((f.commands & cmds) == 0) continue;
    std::string head = std::string("  ") + f.name;
    if (*f.metavar != '\0') head += std::string(" ") + f.metavar;
    head = head.size() < kHelpColumn
               ? head + std::string(kHelpColumn - head.size(), ' ')
               : head + "\n" + std::string(kHelpColumn, ' ');
    std::string help = f.help;
    const std::string range = describe(f);
    if (!range.empty()) help += " (" + range + ")";
    for (std::size_t nl = help.find('\n'); nl != std::string::npos;
         nl = help.find('\n', nl + 1)) {
      help.insert(nl + 1, std::string(kHelpColumn, ' '));
    }
    rows += head + help + "\n";
  }
  return rows.empty() ? out : out + "\n" + rows;
}

std::string lock_slugs(std::span<const locks::LockId> ids,
                       std::string_view sep, std::size_t width) {
  std::string out, line;
  for (const locks::LockId id : ids) {
    const std::string slug = locks::lock_slug(id);
    if (!line.empty() && line.size() + sep.size() + slug.size() > width) {
      out += line + "\n";
      line.clear();
    }
    line += (line.empty() ? "" : std::string(sep)) + slug;
  }
  return out + line;
}

std::optional<stress::Workload> find_stress_workload(std::string_view name) {
  for (const stress::Workload w : stress::all_workloads()) {
    if (name == stress::workload_name(w)) return w;
  }
  return std::nullopt;
}

}  // namespace elision::cli

// The `elide` flag table, one row per flag in the style of the suite
// schema's Field rows (src/harness/suite_schema.cpp): the flag's name, value
// kind and range, the subcommands that read it, the Options field it sets
// and its help. The rows drive the one argv parser (parse(), numbers through
// support/parse.hpp), every subcommand's usage text and cli_test.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "stress/stress.hpp"
#include "tsx/telemetry.hpp"

namespace elision::cli {

// The subcommands, as bits so a row can list every one that reads it.
enum Command : unsigned {
  kTree = 1u << 0,
  kStamp = 1u << 1,
  kSchemes = 1u << 2,
  kFigure = 1u << 3,
  kSuite = 1u << 4,
  kStress = 1u << 5,
};
constexpr unsigned kAllCommands = (1u << 6) - 1;

struct CommandInfo {
  Command cmd;
  const char* name;        // `elide NAME`
  const char* positional;  // its one required argument ("APP"), or null
};

std::span<const CommandInfo> commands();

// Every value a flag can set; each subcommand reads only its rows' fields.
struct Options {
  std::string positional;  // APP of stamp, ID of figure

  // tree, stamp, schemes
  std::string lock = "ttas";
  std::string scheme = "hle-scm";
  int threads = 8;  // simulated threads; stress reads it too
  std::uint64_t size = 1024;
  int updates = 20;
  double ms = 2.0;
  std::uint64_t seed = 42;
  double scale = 1.0;
  bool hwext = false;
  std::uint64_t window = tsx::AvalancheConfig{}.window_cycles;
  int min_victims = tsx::AvalancheConfig{}.min_victims;
  std::string trace_file;
  std::string metrics_file;

  // suite
  std::string tier = "smoke";
  std::string point;  // non-empty: run only this point of the tier
  std::string out_file = "BENCH_results.json";
  std::string baseline_file;
  int jobs = 1;          // points run concurrently
  int host_threads = 1;  // host-thread fan-out; stress reads it too
  bool gate = false;
  bool list = false;
  bool quiet = false;  // stress reads it too
  double plant_regression = 1.0;
  double plant_slowdown = 1.0;
  std::optional<double> tol_simops;  // the gate's sim_ops_per_sec tolerance

  // stress; an empty list means "all"
  std::vector<std::string> schemes;
  std::vector<std::string> locks;
  std::vector<std::string> workloads;
  int seeds = 20;
  std::uint64_t first_seed = 1;
  double duration_ms = stress::StressOptions{}.duration_ms;
  double prob = stress::StressOptions{}.perturb_probability;
  std::uint64_t max_delay = stress::StressOptions{}.perturb_max_delay_cycles;
  bool no_minimize = false;
};

enum class Kind {
  kBool,     // takes no value; sets the field to true
  kInt,      // decimal integer that fits in int
  kU64,      // decimal integer that fits in uint64
  kDouble,   // finite number
  kString,   // any text, or one of the row's known names
  kThreads,  // kInt where 0 means every hardware thread of the host
  kList,     // "all" (stored as an empty list) or NAME[,NAME...]
};

// A numeric row's legal values: [lo, hi], or (lo, hi] when lo_open.
struct Range {
  double lo = 0;
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
};

using Field = std::variant<bool Options::*, int Options::*,
                           std::uint64_t Options::*, double Options::*,
                           std::optional<double> Options::*,
                           std::string Options::*,
                           std::vector<std::string> Options::*>;

struct Flag {
  const char* name;  // "--jobs"
  Kind kind;
  unsigned commands;  // Command bits of the subcommands that read it
  Field field;
  const char* metavar;  // the value's placeholder in the usage text
  const char* help;
  Range range = {};
  // The names a kString value or each kList item may take, or null for any
  // text.
  bool (*known)(std::string_view) = nullptr;
};

std::span<const Flag> flags();

// Reads args (everything after the subcommand) into `o`. Returns the
// diagnostic for a flag `cmd` does not read, a missing, malformed or
// out-of-range value, an unknown name, or a missing or extra positional
// argument; nullopt when every argument was consumed.
std::optional<std::string> parse(Command cmd,
                                 std::span<const char* const> args,
                                 Options& o);

// The usage text of the commands in `cmds`, generated from the table.
std::string usage(unsigned cmds);

std::optional<stress::Workload> find_stress_workload(std::string_view name);

// The slugs of `ids` joined by `sep`, starting a new line before a slug
// that would take a line past `width` characters.
std::string lock_slugs(std::span<const locks::LockId> ids,
                       std::string_view sep,
                       std::size_t width = std::string::npos);

}  // namespace elision::cli

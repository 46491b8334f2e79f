// elision_e2e: the end-to-end simulator benchmark. Every rep runs in a
// forked child (fresh heap, peak RSS from wait4), reps of the selected
// workloads interleave round-robin, and every rep's simulated outcome is
// checked. See README.md in this directory.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "support/json.hpp"
#include "support/parse.hpp"
#include "trace.hpp"

namespace elision::e2e {
namespace {

constexpr std::uint64_t kDefaultSeed = 42;
constexpr int kDefaultTimedReps = 40;
constexpr int kDefaultTracedReps = 3;
// A rep that has not finished by then is killed and counted as failed
// (reps take well under a second).
constexpr unsigned kRepTimeoutSec = 20;
// No new round of reps starts after this much measuring, so a run whose
// reps hang or crash still ends.
constexpr double kMaxMeasureSec = 120;

// Rep i's seed: run_rb_point's per-seed derivation, so reps 0-1 reproduce
// the bench suite's two seeds of the same point.
std::uint64_t rep_seed(std::uint64_t base, int rep) {
  return base + static_cast<std::uint64_t>(rep) * 0x9E3779B9ULL;
}

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr,
               "elision_e2e: %s\n"
               "usage: elision_e2e [--workload NAME[,NAME...]|all] [--seed N]\n"
               "                   [--seconds S] [--reps N] [--trace 0|1]\n"
               "                   [--out DIR] [--selfcheck | "
               "--write-reference]\n",
               why.c_str());
  std::exit(2);
}

struct Options {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0;
  int reps = 0;  // 0 = the mode's default
  bool trace = false;
  std::string out = ".";
  bool selfcheck = false;
  bool write_reference = false;
};

Options parse_args(int argc, char** argv) {
  // Each of these silently changes what the benchmark measures.
  for (const char* env :
       {"ELISION_FASTPATH", "ELISION_BENCH_SCALE", "ELISION_HOST_THREADS"}) {
    if (std::getenv(env) != nullptr) {
      usage_error(std::string(env) +
                  " is set; unset it, the benchmark runs fixed points");
    }
  }
  Options o;
  std::string names = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selfcheck") {
      o.selfcheck = true;
      continue;
    }
    if (a == "--write-reference") {
      o.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      names = v;
    } else if (a == "--seed") {
      const auto s = support::parse_u64(v);
      if (!s) usage_error("--seed wants a non-negative integer, got " + v);
      o.seed = *s;
    } else if (a == "--seconds") {
      const auto s = support::parse_double(v);
      if (!s || *s < 0 || *s > 3600) {
        usage_error("--seconds wants a number in [0, 3600], got " + v);
      }
      o.seconds = *s;
    } else if (a == "--reps") {
      const auto r = support::parse_int(v);
      if (!r || *r < 1 || *r > 10000) {
        usage_error("--reps wants an integer in [1, 10000], got " + v);
      }
      o.reps = *r;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage_error("--trace wants 0 or 1, got " + v);
      o.trace = v == "1";
    } else if (a == "--out") {
      o.out = v;
    } else {
      usage_error("unknown argument " + a);
    }
  }
  if (names == "all") {
    for (const Workload& w : workloads()) o.workloads.push_back(&w);
  } else {
    std::size_t pos = 0;
    while (pos <= names.size()) {
      const std::size_t comma = std::min(names.find(',', pos), names.size());
      const std::string name = names.substr(pos, comma - pos);
      const Workload* w = find_workload(name);
      if (w == nullptr) usage_error("unknown workload '" + name + "'");
      o.workloads.push_back(w);
      pos = comma + 1;
    }
  }
  if (o.selfcheck && o.write_reference) {
    usage_error("--selfcheck and --write-reference are exclusive");
  }
  if (o.reps == 0) o.reps = o.trace ? kDefaultTracedReps : kDefaultTimedReps;
  return o;
}

// ---------------------------------------------------------------------------
// Fork-isolated reps.

struct Forked {
  bool ok = false;
  RepResult r;
  long rss_kb = 0;
  std::string error;
};

template <typename Body>
Forked fork_rep(Body&& body) {
  Forked f;
  int fds[2];
  if (pipe(fds) != 0) {
    f.error = std::string("pipe: ") + std::strerror(errno);
    return f;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    f.error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return f;
  }
  if (pid == 0) {
    close(fds[0]);
    const rlimit no_core{0, 0};
    setrlimit(RLIMIT_CORE, &no_core);
    alarm(kRepTimeoutSec);
    const RepResult r = body();
    const char* p = reinterpret_cast<const char*>(&r);
    std::size_t left = sizeof r;
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(3);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(r.valid ? 0 : 2);
  }
  close(fds[1]);
  char* p = reinterpret_cast<char*>(&f.r);
  std::size_t got = 0;
  while (got < sizeof f.r) {
    const ssize_t n = read(fds[0], p + got, sizeof f.r - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  f.rss_kb = ru.ru_maxrss;
  if (WIFSIGNALED(status)) {
    f.error = std::string("killed by signal ") + strsignal(WTERMSIG(status));
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    f.error = "exit status " + std::to_string(WEXITSTATUS(status));
    if (got == sizeof f.r && f.r.why[0] != '\0') {
      f.error += ": " + std::string(f.r.why);
    }
  } else if (got != sizeof f.r) {
    f.error = "short result from rep process";
  } else {
    f.ok = true;
  }
  return f;
}

// ---------------------------------------------------------------------------
// Per-workload bookkeeping.

struct Rep {
  int index;
  RepResult r;
};

struct Runs {
  const Workload* w = nullptr;
  std::vector<Rep> plain;   // untraced reps that succeeded
  std::vector<Rep> traced;  // traced reps that succeeded
  std::vector<std::uint64_t> digests;  // untraced, by rep index; 0 = failed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  long max_rss_kb = 0;  // untraced reps only: tracing buffers spans
  bool quiet = false;    // the self-check's planted failure

  void fail(const std::string& what) {
    ++failed;
    if (quiet) return;
    std::fprintf(stderr, "elision_e2e: %s: FAILED %s\n", w->name,
                 what.c_str());
  }
  // Counts the attempt; returns the result when the rep succeeded.
  std::optional<RepResult> take(const Forked& f, const std::string& what,
                                bool traced = false) {
    ++attempted;
    if (!traced) max_rss_kb = std::max(max_rss_kb, f.rss_kb);
    if (!f.ok) {
      fail(what + ": " + f.error);
      return std::nullopt;
    }
    return f.r;
  }
};

struct Reference {
  std::uint64_t seed = 0;
  std::map<std::string, std::vector<std::uint64_t>> digests;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::optional<Reference> load_reference(const char* path) {
  const auto doc = support::json::parse_file(path);
  if (!doc || !doc->is_object()) return std::nullopt;
  const auto* seed = doc->find("seed");
  const auto* ws = doc->find("workloads");
  if (seed == nullptr || ws == nullptr || !ws->is_object()) {
    return std::nullopt;
  }
  Reference ref;
  ref.seed = seed->as_u64();
  for (const auto& m : ws->members()) {
    auto& out = ref.digests[m.key];
    for (const auto& d : m.value.items()) {
      const std::string& s = d.as_string();
      if (s.size() != 16 ||
          !std::all_of(s.begin(), s.end(), [](unsigned char c) {
            return std::isxdigit(c) != 0;
          })) {
        return std::nullopt;
      }
      out.push_back(std::strtoull(s.c_str(), nullptr, 16));
    }
  }
  return ref;
}

// Counts every rep whose digest differs from the committed reference at
// the reference's seed.
void check_reference(Runs& runs, std::uint64_t seed, const Reference& ref) {
  if (seed != ref.seed) return;
  const auto it = ref.digests.find(runs.w->name);
  if (it == ref.digests.end()) return;
  const std::size_t n = std::min(it->second.size(), runs.digests.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (runs.digests[i] != 0 && runs.digests[i] != it->second[i]) {
      runs.fail("rep " + std::to_string(i) + " digest " +
                hex(runs.digests[i]) + " differs from reference " +
                hex(it->second[i]));
    }
  }
}

Forked fork_run_rep(const Workload& w, std::uint64_t seed, bool traced,
                    const std::string& chrome_path) {
  return fork_rep([&] {
    if (!traced) {
      RepResult r = run_rep(w, seed, nullptr);
      r.calibration_ms = calibrate_ms();
      return r;
    }
    Tracer tracer(!chrome_path.empty());
    RepResult r = run_rep(w, seed, &tracer);
    r.switch_probe_ns = switch_probe_ns(w, seed);
    if (!chrome_path.empty() && !tracer.write_chrome(chrome_path.c_str())) {
      std::fprintf(stderr, "elision_e2e: cannot write %s\n",
                   chrome_path.c_str());
    }
    return r;
  });
}

void run_plain(Runs& runs, const Options& o, int i) {
  const std::string what = "rep " + std::to_string(i);
  const auto r = runs.take(
      fork_run_rep(*runs.w, rep_seed(o.seed, i), false, ""), what);
  if (runs.digests.size() <= static_cast<std::size_t>(i)) {
    runs.digests.resize(static_cast<std::size_t>(i) + 1, 0);
  }
  if (r) {
    runs.digests[static_cast<std::size_t>(i)] = r->digest;
    runs.plain.push_back({i, *r});
  }
}

void run_traced(Runs& runs, const Options& o, int i) {
  const std::string chrome =
      i == 0 ? o.out + "/e2e-trace-" + runs.w->name + ".json" : "";
  const std::string what = "traced rep " + std::to_string(i);
  const auto r = runs.take(
      fork_run_rep(*runs.w, rep_seed(o.seed, i), true, chrome), what, true);
  if (!r) return;
  const std::uint64_t plain = runs.digests[static_cast<std::size_t>(i)];
  if (plain != 0 && r->digest != plain) {
    runs.fail(what + " digest " + hex(r->digest) + " differs from untraced " +
              hex(plain));
    return;
  }
  runs.traced.push_back({i, *r});
}

// A fresh process re-running rep 0 must reproduce its digest.
void check_rerun(Runs& runs, const Options& o) {
  const auto r = runs.take(
      fork_run_rep(*runs.w, rep_seed(o.seed, 0), false, ""), "rep 0 re-run");
  if (r && runs.digests[0] != 0 && r->digest != runs.digests[0]) {
    runs.fail("rep 0 re-run digest " + hex(r->digest) + " differs from " +
              hex(runs.digests[0]));
  }
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

// Linear interpolation between closest ranks; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

template <typename F>
double median_of(const std::vector<Rep>& reps, F&& f, int first_n = -1) {
  std::vector<double> v;
  for (const Rep& rep : reps) {
    if (first_n < 0 || rep.index < first_n) v.push_back(f(rep.r));
  }
  return quantile(v, 0.5);
}

double per_op(std::uint64_t x, const RepResult& r) {
  return r.ops > 0 ? static_cast<double>(x) / static_cast<double>(r.ops) : 0;
}

// Host times are scaled to the reference host speed: each rep's times are
// multiplied by kReferenceCalibrationMs / the probe time measured right
// after it, so a shared machine slowing down under neighbour load cancels.
double scale(const RepResult& r) {
  return r.calibration_ms > 0 ? kReferenceCalibrationMs / r.calibration_ms
                              : 1.0;
}

std::vector<Metric> end_to_end(const Runs& runs, int n) {
  const auto& reps = runs.plain;
  std::vector<double> rep_ms;
  for (const Rep& rep : reps) rep_ms.push_back(rep.r.rep_ms * scale(rep.r));
  return {
      {"sim_ops_per_s", "ops/s",
       median_of(reps,
                 [](const RepResult& r) {
                   return static_cast<double>(r.ops) /
                          (r.run_ms * scale(r) / 1e3);
                 })},
      {"rep_ms_p50", "ms", quantile(rep_ms, 0.50)},
      {"rep_ms_p75", "ms", quantile(rep_ms, 0.75)},
      {"setup_s", "s",
       median_of(reps,
                 [](const RepResult& r) {
                   return r.setup_ms * scale(r) / 1e3;
                 })},
      {"peak_rss_mb", "MiB", static_cast<double>(runs.max_rss_kb) / 1024.0},
      // Simulated results over the fixed first n reps: a pure function of
      // the seed.
      {"virt_ops_per_s", "ops/virt-s",
       median_of(reps,
                 [](const RepResult& r) {
                   return static_cast<double>(r.ops) /
                          (static_cast<double>(r.elapsed_cycles) /
                           (r.ghz * 1e9));
                 },
                 n)},
      {"virt_attempts_per_op", "attempts/op",
       median_of(reps, [](const RepResult& r) { return per_op(r.attempts, r); },
                 n)},
      {"virt_p99_cycles", "cycles",
       median_of(reps,
                 [](const RepResult& r) {
                   return static_cast<double>(r.p99_cycles);
                 },
                 n)},
  };
}

// The unscaled host times and the probe itself, for the record.
std::vector<Metric> host_raw(const Runs& runs) {
  const auto& reps = runs.plain;
  return {
      {"raw.sim_ops_per_s", "ops/s",
       median_of(reps,
                 [](const RepResult& r) {
                   return static_cast<double>(r.ops) / (r.run_ms / 1e3);
                 })},
      {"raw.rep_ms_p50", "ms",
       median_of(reps, [](const RepResult& r) { return r.rep_ms; })},
      {"calibration_ms", "ms",
       median_of(reps, [](const RepResult& r) { return r.calibration_ms; })},
  };
}

// Exact counts: medians over the fixed first n untraced reps.
std::vector<Metric> layer_counts(const Runs& runs, int n) {
  const auto& reps = runs.plain;
  const auto m = [&](auto f) { return median_of(reps, f, n); };
  const auto p99 = [&](int kind) {
    return m([kind](const RepResult& r) {
      return static_cast<double>(r.p99_kind_cycles[kind]);
    });
  };
  return {
      {"sim.switches_per_op", "switches/op",
       m([](const RepResult& r) { return per_op(r.switches, r); })},
      {"locks.attempts_per_op", "attempts/op",
       m([](const RepResult& r) { return per_op(r.attempts, r); })},
      {"locks.spec_fraction", "fraction",
       m([](const RepResult& r) { return per_op(r.spec_ops, r); })},
      {"tsx.tx_per_op", "tx/op",
       m([](const RepResult& r) { return per_op(r.begins, r); })},
      {"tsx.commit_ratio", "fraction",
       m([](const RepResult& r) {
         return r.begins > 0 ? static_cast<double>(r.commits) /
                                   static_cast<double>(r.begins)
                             : 0.0;
       })},
      {"tsx.aborts_conflict_per_op", "aborts/op",
       m([](const RepResult& r) { return per_op(r.aborts_conflict, r); })},
      {"tsx.aborts_pause_per_op", "aborts/op",
       m([](const RepResult& r) { return per_op(r.aborts_pause, r); })},
      {"tsx.aborts_explicit_per_op", "aborts/op",
       m([](const RepResult& r) { return per_op(r.aborts_explicit, r); })},
      {"tsx.owned_hits_per_op", "hits/op",
       m([](const RepResult& r) { return per_op(r.owned_hits, r); })},
      {"tsx.probe_skips_per_op", "skips/op",
       m([](const RepResult& r) { return per_op(r.probe_skips, r); })},
      {"tsx.telemetry_events_per_op", "events/op",
       m([](const RepResult& r) { return per_op(r.telemetry_events, r); })},
      {"tsx.telemetry_dropped", "count",
       m([](const RepResult& r) {
         return static_cast<double>(r.telemetry_dropped);
       })},
      {"locks.avalanche_episodes", "count",
       m([](const RepResult& r) { return static_cast<double>(r.episodes); })},
      {"service.p99_cycles.get", "cycles", p99(0)},
      {"service.p99_cycles.put", "cycles", p99(1)},
      {"service.p99_cycles.multi_put", "cycles", p99(2)},
      {"service.p99_cycles.transfer", "cycles", p99(3)},
  };
}

// Host-time split from the traced reps: medians.
std::vector<Metric> layer_times(const Runs& runs) {
  const auto& reps = runs.traced;
  const auto m = [&](auto f) { return median_of(reps, f); };
  const auto self = [&](Layer l) {
    return m([l](const RepResult& r) { return r.self_ms[l]; });
  };
  const double untraced_p50 = median_of(
      runs.plain, [](const RepResult& r) { return r.rep_ms; });
  const double traced_p50 =
      m([](const RepResult& r) { return r.rep_ms; });
  return {
      {"harness.setup_ms", "ms",
       m([](const RepResult& r) { return r.setup_ms; })},
      {"harness.collect_ms", "ms",
       m([](const RepResult& r) { return r.collect_ms; })},
      {"harness.op_self_ms", "ms", self(kHarnessOp)},
      {"locks.region_self_ms", "ms", self(kLocksRegion)},
      {"ds.call_self_ms", "ms", self(kDsCall)},
      {"service.request_self_ms", "ms", self(kServiceRequest)},
      {"service.traffic_self_ms", "ms", self(kServiceTraffic)},
      {"sim.switched_ms", "ms",
       m([](const RepResult& r) { return r.switched_ms; })},
      {"sim.switch_probe_ns", "ns",
       m([](const RepResult& r) { return r.switch_probe_ns; })},
      {"sim.switch_floor_ms", "ms",
       m([](const RepResult& r) {
         return static_cast<double>(r.switches) * r.switch_probe_ns / 1e6;
       })},
      {"trace.exact_share", "fraction",
       m([](const RepResult& r) {
         double exact = 0;
         for (const double s : r.self_ms) exact += s;
         const double all = exact + r.switched_ms;
         return all > 0 ? exact / all : 0.0;
       })},
      {"trace.overhead", "fraction",
       untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0.0},
  };
}

// ---------------------------------------------------------------------------
// Output.

void print_metrics(const char* workload, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-12s %-30s %18.6f %s\n", workload, m.name, m.value, m.unit);
  }
}

void append_json(std::string& out, const std::string& key,
                 const std::vector<Metric>& ms, bool& first) {
  char buf[128];
  for (const Metric& m : ms) {
    std::snprintf(buf, sizeof buf, "{\"value\": %.17g, \"unit\": \"%s\"}",
                  m.value, m.unit);
    out += std::string(first ? "" : ", ") + "\"" + key + m.name + "\": " + buf;
    first = false;
  }
}

bool write_results(const std::string& path, const Options& o,
                   const std::vector<Runs>& all,
                   const std::vector<std::vector<Metric>>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"seed\": %" PRIu64 ", \"trace\": %d, \"reps\": %d, "
               "\"workloads\": {",
               o.seed, o.trace ? 1 : 0, o.reps);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Runs& r = all[i];
    std::string ms;
    bool first = true;
    append_json(ms, "", metrics[i], first);
    std::string digests;
    for (const std::uint64_t d : r.digests) {
      digests += (digests.empty() ? "\"" : ", \"") + hex(d) + "\"";
    }
    std::fprintf(f,
                 "%s\n  \"%s\": {\"attempted\": %" PRIu64
                 ", \"failed\": %" PRIu64
                 ", \"digests\": [%s],\n    \"metrics\": {%s}}",
                 i == 0 ? "" : ",", r.w->name, r.attempted, r.failed,
                 digests.c_str(), ms.c_str());
  }
  std::fputs("}}\n", f);
  return std::fclose(f) == 0;
}

int run(const Options& o) {
  const auto ref = load_reference(ELISION_E2E_REFERENCE);
  if (!ref) {
    std::fprintf(stderr, "elision_e2e: cannot read %s\n",
                 ELISION_E2E_REFERENCE);
    return 2;
  }
  std::vector<Runs> all(o.workloads.size());
  for (std::size_t k = 0; k < all.size(); ++k) all[k].w = o.workloads[k];

  // Round-robin, so a slow period on a shared host hits every workload.
  const auto start = Clock::now();
  const auto elapsed_s = [&start] {
    return ms_between(start, Clock::now()) / 1e3;
  };
  for (int i = 0; (i < o.reps || elapsed_s() < o.seconds) &&
                  elapsed_s() < std::max(o.seconds, kMaxMeasureSec);
       ++i) {
    for (Runs& runs : all) {
      run_plain(runs, o, i);
      if (o.trace) run_traced(runs, o, i);
    }
  }
  for (Runs& runs : all) {
    check_rerun(runs, o);
    check_reference(runs, o.seed, *ref);
  }

  std::error_code mkdir_error;
  std::filesystem::create_directories(o.out, mkdir_error);
  std::vector<std::vector<Metric>> printed;
  std::string json_metrics;
  bool first = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const Runs& runs : all) {
    std::vector<Metric> e2e = end_to_end(runs, o.reps);
    const std::vector<Metric> raw = host_raw(runs);
    std::vector<Metric> layers = layer_counts(runs, o.reps);
    if (o.trace) {
      const auto times = layer_times(runs);
      layers.insert(layers.end(), times.begin(), times.end());
    }
    print_metrics(runs.w->name, e2e);
    print_metrics(runs.w->name, raw);
    print_metrics(runs.w->name, layers);
    // The result line carries the end-to-end metrics of a timed run and
    // the per-layer metrics of a traced one.
    const std::string key =
        all.size() == 1 ? "" : std::string(runs.w->name) + ".";
    append_json(json_metrics, key, o.trace ? layers : e2e, first);
    std::vector<Metric> both = e2e;
    both.insert(both.end(), raw.begin(), raw.end());
    both.insert(both.end(), layers.begin(), layers.end());
    printed.push_back(std::move(both));
    attempted += runs.attempted;
    failed += runs.failed;
  }
  const std::string results = o.out + "/e2e-results.json";
  if (!write_results(results, o, all, printed)) {
    std::fprintf(stderr, "elision_e2e: cannot write %s\n", results.c_str());
    return 2;
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              json_metrics.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Self-check and reference.

int selfcheck(const Options& o) {
  int bad = 0;
  const auto verdict = [&bad](const char* w, const char* what, bool ok,
                              const std::string& detail) {
    std::printf("%-4s %-12s %s%s\n", ok ? "ok" : "FAIL", w, what,
                detail.c_str());
    if (!ok) ++bad;
  };
  for (const Workload* w : o.workloads) {
    const std::uint64_t seed = rep_seed(o.seed, 0);
    const Forked plain = fork_run_rep(*w, seed, false, "");
    const Forked entry = fork_rep([&] {
      RepResult r;
      r.valid = true;
      r.stats_digest = entry_point_digest(*w, seed);
      return r;
    });
    verdict(w->name, "benchmark builds the entry point's simulation",
            plain.ok && entry.ok &&
                plain.r.stats_digest == entry.r.stats_digest,
            ": " + hex(plain.r.stats_digest) + " vs " +
                hex(entry.r.stats_digest) + " " + plain.error + entry.error);
    const Forked traced = fork_run_rep(*w, seed, true, "");
    verdict(w->name, "tracing leaves the digest unchanged",
            traced.ok && plain.ok && traced.r.digest == plain.r.digest,
            ": " + hex(traced.r.digest) + " vs " + hex(plain.r.digest) + " " +
                traced.error);
    // The run's own reference check must count a planted wrong digest.
    Runs runs;
    runs.w = w;
    runs.quiet = true;
    runs.digests = {plain.r.digest};
    Reference planted;
    planted.seed = o.seed;
    planted.digests[w->name] = {plain.r.digest ^ 1};
    check_reference(runs, o.seed, planted);
    const std::uint64_t caught = runs.failed;
    planted.digests[w->name] = {plain.r.digest};
    check_reference(runs, o.seed, planted);
    verdict(w->name, "a planted wrong reference digest counts as failed",
            plain.ok && caught == 1 && runs.failed == 1, "");
  }
  std::printf("selfcheck: %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

int write_reference(const Options& o) {
  std::map<std::string, std::vector<std::uint64_t>> digests;
  for (int i = 0; i < o.reps; ++i) {
    for (const Workload& w : workloads()) {
      const Forked f = fork_run_rep(w, rep_seed(o.seed, i), false, "");
      if (!f.ok) {
        std::fprintf(stderr, "elision_e2e: %s rep %d failed: %s\n", w.name, i,
                     f.error.c_str());
        return 1;
      }
      digests[w.name].push_back(f.r.digest);
    }
  }
  std::FILE* f = std::fopen(ELISION_E2E_REFERENCE, "w");
  if (f == nullptr) return 1;
  std::fprintf(f, "{\"seed\": %" PRIu64 ", \"workloads\": {", o.seed);
  bool first_w = true;
  for (const Workload& w : workloads()) {
    std::fprintf(f, "%s\n  \"%s\": [", first_w ? "" : ",", w.name);
    first_w = false;
    const auto& d = digests[w.name];
    for (std::size_t i = 0; i < d.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : (i % 4 == 0 ? ",\n    " : ", "),
                   hex(d[i]).c_str());
    }
    std::fputs("]", f);
  }
  std::fputs("\n}}\n", f);
  if (std::fclose(f) != 0) return 1;
  std::printf("wrote %d reps per workload at seed %" PRIu64 " to %s\n",
              o.reps, o.seed, ELISION_E2E_REFERENCE);
  return 0;
}

}  // namespace
}  // namespace elision::e2e

int main(int argc, char** argv) {
  using namespace elision::e2e;
  const Options o = parse_args(argc, argv);
  if (o.selfcheck) return selfcheck(o);
  if (o.write_reference) return write_reference(o);
  return run(o);
}

#include "harness/runner.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "support/check.hpp"
#include "support/parallel.hpp"

namespace elision::harness {

double env_duration_scale() {
  const char* s = std::getenv("ELISION_BENCH_SCALE");
  if (s == nullptr || *s == '\0') return 1.0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  while (end != nullptr && *end != '\0' &&
         std::isspace(static_cast<unsigned char>(*end))) {
    ++end;
  }
  if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
    // once_flag, not a bare bool: concurrent simulations (support/parallel)
    // may hit this path from several host threads at once.
    static std::once_flag warned;
    std::call_once(warned, [s] {
      std::fprintf(stderr,
                   "harness: ignoring ELISION_BENCH_SCALE=\"%s\" (want a "
                   "positive finite number); using 1.0\n",
                   s);
    });
    return 1.0;
  }
  return v;
}

bool env_fastpath_enabled() {
  const char* s = std::getenv("ELISION_FASTPATH");
  if (s == nullptr || *s == '\0') return true;
  return std::strcmp(s, "0") != 0;
}

void validate_bench_config(const BenchConfig& cfg) {
  const auto die = [](const std::string& why) {
    std::fprintf(stderr, "error: invalid bench config: %s\n", why.c_str());
    std::exit(2);
  };
  if (cfg.threads < 1 || cfg.threads > sim::kMaxSimThreads) {
    die("threads must be in [1," + std::to_string(sim::kMaxSimThreads) +
        "], got " + std::to_string(cfg.threads));
  }
  if (cfg.machine.n_cores == 0) {
    die("machine.n_cores must be >= 1 (0 is not a valid topology; leave a "
        "point's n_cores override at 0 to keep the default machine)");
  }
  if (cfg.machine.smt_per_core == 0) {
    die("machine.smt_per_core must be >= 1 (0 is not a valid topology; "
        "leave a point's smt_per_core override at 0 to keep the default "
        "machine)");
  }
}

BenchConfig simulated_config(const BenchConfig& cfg_in) {
  validate_bench_config(cfg_in);
  BenchConfig cfg = cfg_in;
  if (!env_fastpath_enabled()) {
    cfg.machine.batch_switch_bound = false;
    cfg.tsx.owned_line_fastpath = false;
  }
  return cfg;
}

RunStats run_workload(const BenchConfig& cfg_in, const OpFn& op) {
  const BenchConfig cfg = simulated_config(cfg_in);
  sim::Scheduler sched(cfg.machine);
  tsx::Engine eng(sched, cfg.tsx);

  const bool want_telemetry = cfg.telemetry || cfg.telemetry_sink != nullptr;
  tsx::Telemetry local_telemetry(cfg.telemetry_ring_capacity);
  tsx::Telemetry* telemetry = cfg.telemetry_sink != nullptr
                                  ? cfg.telemetry_sink
                                  : &local_telemetry;
  if (want_telemetry) {
    eng.set_telemetry(telemetry);
  }

  const std::uint64_t deadline = cfg.duration_cycles();
  const std::uint64_t slot_cycles = cfg.timeline_slot_cycles;
  const std::size_t n_slots =
      slot_cycles > 0 ? static_cast<std::size_t>(deadline / slot_cycles + 2)
                      : 0;

  struct ThreadTally {
    std::uint64_t ops = 0, spec = 0, nonspec = 0, attempts = 0;
    Histogram attempts_hist;
    std::vector<SlotStats> timeline;
  };
  std::vector<ThreadTally> tallies(cfg.threads);

  for (int t = 0; t < cfg.threads; ++t) {
    tallies[t].timeline.resize(n_slots);
    sched.spawn([&cfg, &eng, &op, &tallies, slot_cycles, t](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      auto& mine = tallies[t];
      while (!st.stop_requested()) {
        const locks::RegionResult r = op(ctx);
        if (cfg.on_region_complete) cfg.on_region_complete(ctx, r);
        ++mine.ops;
        if (r.speculative) {
          ++mine.spec;
        } else {
          ++mine.nonspec;
        }
        mine.attempts += static_cast<std::uint64_t>(r.attempts);
        mine.attempts_hist.add(static_cast<std::uint64_t>(r.attempts));
        if (slot_cycles > 0) {
          const auto slot =
              static_cast<std::size_t>(st.now() / slot_cycles);
          if (slot < mine.timeline.size()) {
            ++mine.timeline[slot].ops;
            if (!r.speculative) ++mine.timeline[slot].nonspec_ops;
          }
        }
      }
    });
  }
  sched.run_for(deadline);

  RunStats out;
  out.ghz = cfg.machine.ghz;
  out.elapsed_cycles = sched.elapsed_cycles();
  out.perturb_points = sched.perturb_points_used();
  out.timeline.resize(n_slots);
  for (const auto& t : tallies) {
    out.ops += t.ops;
    out.spec_ops += t.spec;
    out.nonspec_ops += t.nonspec;
    out.attempts += t.attempts;
    out.attempts_hist.merge(t.attempts_hist);
    for (std::size_t s = 0; s < t.timeline.size(); ++s) {
      out.timeline[s].ops += t.timeline[s].ops;
      out.timeline[s].nonspec_ops += t.timeline[s].nonspec_ops;
    }
  }
  out.tx = eng.total_stats();
  out.fp_bound_recomputes = sched.switch_bound_recomputes();

  if (want_telemetry) {
    eng.set_telemetry(nullptr);
    out.telemetry_events = telemetry->total_recorded();
    out.telemetry_dropped = telemetry->total_dropped();
    const auto merged = telemetry->merged();
    out.episodes = tsx::detect_avalanches(merged, cfg.avalanche);
    for (const std::uint64_t lat : tsx::rejoin_latencies(merged)) {
      out.rejoin_hist.add(lat);
    }
  }
  return out;
}

RunStats run_seeds(
    int seeds, std::uint64_t base_seed, int host_threads,
    support::FunctionRef<RunStats(std::size_t s, std::uint64_t seed)> body) {
  const std::size_t n = seeds > 0 ? static_cast<std::size_t>(seeds) : 1;
  std::vector<RunStats> per_seed(n);
  support::parallel_for_each(
      n,
      [&](std::size_t s) {
        per_seed[s] = body(s, base_seed + s * 0x9E3779B9ULL);
      },
      host_threads);
  RunStats total;
  for (const RunStats& r : per_seed) total.accumulate(r);
  return total;
}

}  // namespace elision::harness

#include "harness/phase_workload.hpp"

namespace elision::harness {

std::array<std::uint64_t, kPhaseCount> phase_ops_of(const RunStats& stats) {
  std::array<std::uint64_t, kPhaseCount> out{};
  for (std::size_t s = 0; s < stats.timeline.size(); ++s) {
    const std::size_t p = s < kPhaseCount ? s : kPhaseCount - 1;
    out[p] += stats.timeline[s].ops;
  }
  return out;
}

RunStats run_phase_point_once(const PhasePoint& p) {
  BenchConfig cfg;
  cfg.threads = p.threads;
  cfg.duration_sec = p.phase_sec * kPhaseCount;
  cfg.duration_scale = env_duration_scale();
  cfg.machine.seed = p.seed;
  cfg.policy = p.scheme;
  cfg.telemetry = p.telemetry;
  cfg.avalanche = p.avalanche;
  // One timeline slot per phase. Deriving the width from the scaled total
  // keeps the slots phase-aligned under ELISION_BENCH_SCALE too.
  const std::uint64_t phase_cycles = cfg.duration_cycles() / kPhaseCount;
  cfg.timeline_slot_cycles = phase_cycles;
  return run_keyed(cfg, {.size = p.size,
                         .lock = p.lock,
                         .update_pct = p.calm_update_pct,
                         .phase_cycles = phase_cycles,
                         .storm_update_pct = p.storm_update_pct});
}

RunStats run_phase_point(const PhasePoint& p) {
  // RunStats::accumulate adds timelines slot-wise, so phase attribution
  // survives the seed merge byte-identically at any host_threads.
  return run_seeds(p.seeds, p.seed, p.host_threads,
                   [&](std::size_t, std::uint64_t seed) {
                     PhasePoint q = p;
                     q.host_threads = 1;
                     q.seed = seed;
                     return run_phase_point_once(q);
                   });
}

}  // namespace elision::harness

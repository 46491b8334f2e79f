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

}  // namespace elision::harness

// The phase-shifting benchmark behind the adaptive-elision headline
// (ROADMAP item 2): one RB-tree run whose operation mix flips by virtual
// time through three equal phases
//
//   phase 0: read-mostly   (calm_update_pct updates)
//   phase 1: write-storm   (storm_update_pct updates)
//   phase 2: read-mostly   (calm_update_pct again)
//
// No static scheme wins every phase at the default operating point (small
// hot tree, 16 threads, TTAS): plain HLE wins the calm phases — its ~50%
// abort churn is healthy contention, and SCM's global aux serialization
// costs ~20% there — but falls behind in the storm, where SCM's conflict
// management wins; grouped SCM and the standard lock trail everywhere.
// `policy=adaptive` must track the per-phase winner (suite invariant
// adaptive-tracks-phase-winner), which its default thresholds are keyed
// to: HLE's calm churn sits below up_pct, its storm rate above, and SCM's
// storm rate between down_pct and up_pct (see AdaptiveParams).
//
// Per-phase commit counts come from the runner's timeline with the slot
// width set to the phase width, so run_point's multi-seed merge (slot-wise
// accumulate) keeps them exact and deterministic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "harness/rb_workload.hpp"

namespace elision::harness {

inline constexpr int kPhaseCount = 3;

struct PhasePoint {
  std::size_t size = 12;  // small tree: the storm must actually conflict
  int threads = 16;
  locks::ElisionPolicy scheme = locks::ElisionPolicy::adaptive();
  locks::LockId lock = locks::LockId::kTtas;  // one of locks::ExclusiveLocks
  int calm_update_pct = 10;    // phases 0 and 2
  int storm_update_pct = 100;  // phase 1
  double phase_sec = 0.001;    // virtual seconds per phase
  bool telemetry = false;
  tsx::AvalancheConfig avalanche;
  int seeds = 2;
  std::uint64_t seed = 42;
};

// Ops committed in each phase, read off the run's timeline (slot width ==
// phase width; the occasional op completing marginally past the deadline
// folds into the last phase). Phases have equal virtual duration, so these
// compare across points like throughputs do.
std::array<std::uint64_t, kPhaseCount> phase_ops_of(const RunStats& stats);

RunStats run_phase_point_once(const PhasePoint& p);

}  // namespace elision::harness

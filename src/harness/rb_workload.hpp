// The paper's red-black-tree benchmark as library code: a global-lock-
// protected tree, random insert/delete/lookup mix, fixed virtual duration,
// parameterised over (lock, scheme, size, mix, threads), and the keyed-set
// runner behind it, which also drives the hash-table and skiplist tables.
// This file runs one seed; run_point (harness/suite.hpp) fans a point's
// seeds out and merges them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "harness/runner.hpp"
#include "locks/adaptive.hpp"

namespace elision::harness {

enum class LockSel { kTtas, kMcs, kTicketAdj, kClhAdj, kTicket, kClh };

inline constexpr LockSel kAllLockSels[] = {
    LockSel::kTtas,   LockSel::kMcs, LockSel::kTicketAdj,
    LockSel::kClhAdj, LockSel::kTicket, LockSel::kClh};

const char* lock_sel_name(LockSel s);

// Lower-case lock_sel_name ("ttas", "ticket-adj", ...): the spelling of
// suite point ids and of every CLI's --lock flag.
std::string lock_sel_slug(LockSel s);
std::optional<LockSel> parse_lock_sel(std::string_view slug);

struct RbPoint {
  std::size_t size = 128;
  int update_pct = 20;  // split evenly between inserts and deletes
  int threads = 8;
  locks::ElisionPolicy scheme = locks::ElisionPolicy::standard();
  LockSel lock = LockSel::kTtas;
  double duration_sec = 0.003;
  // Collect an event trace and derive avalanche/rejoin statistics.
  bool telemetry = false;
  tsx::AvalancheConfig avalanche;
  // Runs averaged per point (different machine seeds). Avalanche latching
  // is bistable at short windows, so single runs have high variance.
  int seeds = 2;
  bool hardware_extension = false;
  std::uint64_t timeline_slot_cycles = 0;
  std::uint64_t seed = 42;

  // Machine-shape overrides for big-machine scaling points; 0 keeps the
  // MachineConfig default (the paper's 4-core / 2-SMT i7). The suite emits
  // these into results JSON only when set, so historical baseline lines are
  // byte-identical.
  unsigned n_cores = 0;
  unsigned smt_per_core = 0;
  std::uint64_t yield_slack_cycles = 0;

  // Observation out-params for a single run_rb_point_once (run_point
  // rejects them). Neither changes a simulated result, and neither is part
  // of the point schema.
  //
  // Caller-owned event sink (BenchConfig::telemetry_sink; implies
  // `telemetry`), so the raw event stream outlives the run.
  tsx::Telemetry* telemetry_sink = nullptr;
  // Receives a copy of the critical section's adaptive controller after the
  // run (its decision trace and final mode; docs/adaptive.md).
  locks::AdaptiveController* adaptive_out = nullptr;
};

// Builds the tree (random keys from a domain of 2*size, as in Ch. 3) and
// runs the benchmark for the configured virtual duration, once. The paper
// averages 10 three-second runs per point; run_point (harness/suite.hpp)
// merges `p.seeds` such runs.
RunStats run_rb_point_once(const RbPoint& p);

// The keyed sets the insert/erase/contains runner can drive.
enum class KeyedSet { kRbTree, kHashTable, kSkipList };

// The one keyed-set run behind run_rb_point_once, run_phase_point_once and
// the hash-table/skiplist figures: prefills `set` with `size` distinct keys
// drawn from [0, 2*size) by an RNG seeded with cfg.machine.seed, guards it
// with `lock` elided by cfg.policy, and runs the random insert/erase/
// contains mix under cfg. Each op draws its key, then its dice, and splits
// update_pct evenly between inserts and erases. A TTAS lock's arrival
// counts land in RunStats::arrivals and arrivals_lock_held.
struct KeyedRun {
  KeyedSet set = KeyedSet::kRbTree;
  std::size_t size = 0;
  LockSel lock = LockSel::kTtas;
  int update_pct = 0;
  // The phase workload's write storm: when phase_cycles > 0, the second
  // phase (virtual time now / phase_cycles == 1) uses storm_update_pct.
  std::uint64_t phase_cycles = 0;
  int storm_update_pct = 0;
  locks::AdaptiveController* adaptive_out = nullptr;
};

RunStats run_keyed(const BenchConfig& cfg, const KeyedRun& run);

// The paper's tree-size sweep (Fig 3.1/3.4/5.2 x-axis).
inline const std::size_t kTreeSizes[] = {2,    8,    32,   128,   512,
                                         2048, 8192, 32768, 131072, 524288};

// A faster subset for the benches that run many (scheme x lock) combos.
inline const std::size_t kTreeSizesSmall[] = {2, 8, 32, 128, 512, 2048, 8192,
                                              32768};

struct Mix {
  const char* name;
  int update_pct;
};
inline const Mix kMixes[] = {
    {"lookups-only", 0},
    {"10i-10d-80l", 20},
    {"50i-50d", 100},
};

}  // namespace elision::harness

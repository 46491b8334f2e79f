// The paper's red-black-tree benchmark as library code: a global-lock-
// protected tree, random insert/delete/lookup mix, fixed virtual duration,
// parameterised over (lock, scheme, size, mix, threads). Historically this
// lived in bench/bench_common.hpp and every figure binary re-instantiated
// it; it moved into the harness so the bench-suite driver, the figure
// benches and tests all run the exact same point definitions.
#pragma once

#include <cstddef>
#include <cstdint>

#include "harness/runner.hpp"

namespace elision::harness {

enum class LockSel { kTtas, kMcs, kTicketAdj, kClhAdj, kTicket, kClh };

const char* lock_sel_name(LockSel s);

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

  // Host threads the multi-seed fan-out may use (support/parallel.hpp).
  // Each seed is an independent simulation; results are merged in seed
  // order, so any value produces byte-identical RunStats to host_threads=1
  // — only host wall time changes. Never affects a point with seeds <= 1.
  int host_threads = 1;

  // Out-param: fraction of TTAS lock arrivals that found the lock held
  // (the boxed series of Fig 3.1). Only filled for LockSel::kTtas.
  double* arrival_held_frac = nullptr;
};

// Builds the tree (random keys from a domain of 2*size, as in Ch. 3) and
// runs the benchmark for the configured virtual duration, once.
RunStats run_rb_point_once(const RbPoint& p);

// Accumulates `p.seeds` independent runs (the paper averages 10 three-second
// runs per point). Every RunStats field is merged, including per-slot
// timelines.
RunStats run_rb_point(const RbPoint& p);

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

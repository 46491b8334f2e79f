// The B+tree range-scan benchmark: a global two-mode-lock-protected B+tree
// with a lookup/scan/insert/delete mix. The read operations run under the
// point's policy *as configured* — an exclusive policy serializes them
// through the writer path, a `+shared` policy runs them as (elided) readers —
// which makes the exclusive-vs-shared pair of otherwise identical points the
// suite's shared-mode comparison axis. Updates always run exclusive.
#pragma once

#include <cstddef>
#include <cstdint>

#include "harness/runner.hpp"
#include "locks/registry.hpp"

namespace elision::harness {

struct BtPoint {
  std::size_t size = 128;
  int update_pct = 10;  // split evenly between inserts and deletes
  // Of the non-update (read) operations, the percentage that are range
  // scans of `scan_len` keys; the rest are point lookups.
  int scan_pct = 30;
  std::size_t scan_len = 16;
  int threads = 8;
  // Reads follow this policy's access mode; `.shared()` is the elided-reader
  // configuration the suite compares against the exclusive equivalent.
  locks::ElisionPolicy policy = locks::ElisionPolicy::hle();
  locks::LockId lock = locks::LockId::kSharedTtas;  // one of locks::SharedLocks
  double duration_sec = 0.003;
  bool telemetry = false;
  tsx::AvalancheConfig avalanche;
  int seeds = 2;
  std::uint64_t timeline_slot_cycles = 0;
  std::uint64_t seed = 42;
};

// The one B+tree run behind run_bt_point_once and the stress btree
// workload: prefills `size` distinct keys from [0, 2*size) (RNG seeded
// with cfg.machine.seed), each with value key+1, and runs the mix under
// cfg. Each op draws its key, dice and read dice; updates (update_pct,
// inserts and erases half and half) run exclusive, reads in cfg.policy's
// mode. With cfg.invariants set, it feeds the sink as run_keyed does.
struct BtRun {
  std::size_t size = 0;
  // Any registry lock; suite points name one of locks::SharedLocks.
  locks::LockId lock = locks::LockId::kSharedTtas;
  int update_pct = 0;
  // Of the reads, the percentage that are range scans of scan_len keys.
  int scan_pct = 0;
  std::size_t scan_len = 0;
  // Stress's role split (StressOptions' btree_* fields of the same names):
  // 0 for every suite point and not part of the suite schema.
  int writer_threads = 0;
  std::uint64_t writer_gap_cycles = 0;
  std::uint64_t read_dwell_cycles = 0;
};

RunStats run_bt(const BenchConfig& cfg, const BtRun& run);

// run_bt for one seed of a suite point; run_point (harness/suite.hpp)
// merges `p.seeds` such runs.
RunStats run_bt_point_once(const BtPoint& p);

}  // namespace elision::harness

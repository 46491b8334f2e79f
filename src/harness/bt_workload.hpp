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

// Builds the tree (random keys from a domain of 2*size) and runs the
// benchmark for the configured virtual duration, once; run_point
// (harness/suite.hpp) merges `p.seeds` such runs.
RunStats run_bt_point_once(const BtPoint& p);

}  // namespace elision::harness

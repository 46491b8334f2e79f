// Internal helpers for the STAMP-mini applications.
#pragma once

#include <utility>

#include "stamp/common.hpp"

namespace elision::stamp::detail {

// Instantiates the app body for the configured main-lock type.
template <typename Fn>
StampResult dispatch_lock(const StampConfig& cfg, Fn&& fn) {
  return locks::with_lock<locks::StampLocks>(cfg.lock, [&]<typename Lock>() {
    Lock lock;
    return fn(lock);
  });
}

// Static partition [begin, end) of n items for thread t of T.
inline std::pair<std::size_t, std::size_t> partition(std::size_t n, int t,
                                                     int threads) {
  const std::size_t lo = n * static_cast<std::size_t>(t) / threads;
  const std::size_t hi = n * static_cast<std::size_t>(t + 1) / threads;
  return {lo, hi};
}

inline StampResult collect(const char* app, std::uint64_t checksum,
                           std::uint64_t elapsed,
                           const std::vector<OpTally>& tallies) {
  StampResult r;
  r.app = app;
  r.checksum = checksum;
  r.elapsed_cycles = elapsed;
  for (const auto& t : tallies) {
    r.ops += t.ops;
    r.nonspec_ops += t.nonspec;
    r.attempts += t.attempts;
  }
  return r;
}

}  // namespace elision::stamp::detail

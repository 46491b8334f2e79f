// STAMP kmeans: iterative K-means clustering.
//
// Transactional character: very short transactions that accumulate a point
// into the shared per-cluster sums. Contention is governed by K: the "high
// contention" configuration uses few clusters (every update hits the same
// handful of accumulator lines), "low" uses many.
//
// The immutable point coordinates are read outside the critical section (as
// in STAMP, where only the accumulation is transactional); their scan cost
// is charged as compute.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "stamp/detail.hpp"
#include "support/rng.hpp"
#include "tsx/shared.hpp"

namespace elision::stamp {

namespace {
constexpr int kDims = 4;
constexpr int kIters = 3;
constexpr std::int64_t kFixedPoint = 1024;  // coordinates in fixed point
}  // namespace

StampResult run_kmeans(const StampConfig& cfg, bool high_contention) {
  const int k = high_contention ? 4 : 40;
  // At least one point, so a tiny scale still has centroids to seed.
  const auto n_points =
      std::max<std::size_t>(1, static_cast<std::size_t>(2048 * cfg.scale));

  // Immutable input points (host data; scanned outside transactions).
  support::Xoshiro256 rng(cfg.seed);
  std::vector<std::int64_t> points(n_points * kDims);
  for (auto& v : points) {
    v = static_cast<std::int64_t>(rng.next_below(100 * kFixedPoint));
  }

  // Shared state: per-cluster coordinate sums and counts, plus the current
  // centroids (updated by thread 0 between iterations).
  tsx::SharedArray<std::int64_t> acc(static_cast<std::size_t>(k) * kDims);
  tsx::SharedArray<std::int64_t> cnt(k);
  tsx::SharedArray<std::int64_t> centroid(static_cast<std::size_t>(k) * kDims);
  for (int c = 0; c < k; ++c) {
    for (int d = 0; d < kDims; ++d) {
      centroid[static_cast<std::size_t>(c) * kDims + d].unsafe_set(
          points[(c * 37 % n_points) * kDims + d]);
    }
  }

  return detail::dispatch_lock(cfg, [&](auto& lock) {
    using Lock = std::remove_reference_t<decltype(lock)>;
    sim::Scheduler sched(cfg.machine);
    tsx::Engine eng(sched, cfg.tsx);
    locks::CriticalSection<Lock> cs(locks::ElisionPolicy::from_scheme(cfg.scheme), lock);
    SimBarrier barrier(cfg.threads);
    std::vector<OpTally> tallies(cfg.threads);

    for (int t = 0; t < cfg.threads; ++t) {
      sched.spawn([&, t](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        const auto [lo, hi] = detail::partition(n_points, t, cfg.threads);
        for (int iter = 0; iter < kIters; ++iter) {
          for (std::size_t p = lo; p < hi; ++p) {
            // Find the nearest centroid: reads of the (stable within an
            // iteration) centroid array, plus arithmetic.
            int best = 0;
            std::int64_t best_d2 = INT64_MAX;
            for (int c = 0; c < k; ++c) {
              std::int64_t d2 = 0;
              for (int d = 0; d < kDims; ++d) {
                const std::int64_t diff =
                    points[p * kDims + d] -
                    centroid[static_cast<std::size_t>(c) * kDims + d].load(
                        ctx);
                d2 += diff * diff / kFixedPoint;
              }
              if (d2 < best_d2) {
                best_d2 = d2;
                best = c;
              }
            }
            // The STAMP transaction: fold the point into cluster `best`.
            tallies[t].add(cs.run(ctx, [&] {
              for (int d = 0; d < kDims; ++d) {
                auto& slot = acc[static_cast<std::size_t>(best) * kDims + d];
                slot.store(ctx, slot.load(ctx) + points[p * kDims + d]);
              }
              cnt[best].store(ctx, cnt[best].load(ctx) + 1);
            }));
          }
          barrier.wait(ctx);
          if (t == 0) {
            // Recompute centroids (single-threaded phase, direct accesses).
            for (int c = 0; c < k; ++c) {
              const std::int64_t n = cnt[c].load(ctx);
              for (int d = 0; d < kDims; ++d) {
                auto& a = acc[static_cast<std::size_t>(c) * kDims + d];
                if (n > 0) {
                  centroid[static_cast<std::size_t>(c) * kDims + d].store(
                      ctx, a.load(ctx) / n);
                }
                a.store(ctx, 0);
              }
              cnt[c].store(ctx, 0);
            }
          }
          barrier.wait(ctx);
        }
      });
    }
    sched.run();

    std::uint64_t checksum = 0;
    for (int c = 0; c < k; ++c) {
      for (int d = 0; d < kDims; ++d) {
        checksum = checksum * 1000003 +
                   static_cast<std::uint64_t>(
                       centroid[static_cast<std::size_t>(c) * kDims + d]
                           .unsafe_get());
      }
    }
    return detail::collect(high_contention ? "kmeans_high" : "kmeans_low",
                           checksum, sched.elapsed_cycles(), tallies);
  });
}

}  // namespace elision::stamp

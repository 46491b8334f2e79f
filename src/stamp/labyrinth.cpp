// STAMP labyrinth: Lee-algorithm path routing in a shared grid.
//
// This is the suite's long-transaction stress case (the paper's Fig 2.1
// discussion is what makes it interesting here): each routing transaction
// BFS-reads a large neighbourhood of the grid and then claims every cell of
// the found path, so read sets are large, write sets can approach the L1
// bound, and two concurrent routings conflict whenever their regions cross.
// An extension beyond the thesis's seven evaluated configurations.
#include <cstdint>
#include <deque>
#include <vector>

#include "stamp/detail.hpp"
#include "support/rng.hpp"
#include "tsx/shared.hpp"

namespace elision::stamp {

namespace {

constexpr int kWidth = 48;
constexpr int kHeight = 48;
constexpr std::int64_t kEmpty = 0;

int cell_index(int x, int y) { return y * kWidth + x; }

}  // namespace

StampResult run_labyrinth(const StampConfig& cfg) {
  const auto n_paths = static_cast<std::size_t>(96 * cfg.scale);

  // Endpoint pairs, pre-generated with distinct free endpoints.
  support::Xoshiro256 rng(cfg.seed);
  std::vector<std::pair<int, int>> endpoints;  // (src, dst) cell indices
  std::vector<bool> used(kWidth * kHeight, false);
  while (endpoints.size() < n_paths) {
    const int sx = static_cast<int>(rng.next_below(kWidth));
    const int sy = static_cast<int>(rng.next_below(kHeight));
    const int dx = static_cast<int>(rng.next_below(kWidth));
    const int dy = static_cast<int>(rng.next_below(kHeight));
    const int s = cell_index(sx, sy), d = cell_index(dx, dy);
    if (s == d || used[s] || used[d]) continue;
    used[s] = used[d] = true;
    endpoints.emplace_back(s, d);
  }

  tsx::SharedArray<std::int64_t> grid(kWidth * kHeight);

  return detail::dispatch_lock(cfg, [&](auto& lock) {
    using Lock = std::remove_reference_t<decltype(lock)>;
    sim::Scheduler sched(cfg.machine);
    tsx::Engine eng(sched, cfg.tsx);
    locks::CriticalSection<Lock> cs(locks::ElisionPolicy::from_scheme(cfg.scheme), lock);
    std::vector<OpTally> tallies(cfg.threads);
    std::vector<std::uint64_t> routed(cfg.threads, 0);

    for (int t = 0; t < cfg.threads; ++t) {
      sched.spawn([&, t](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        const auto [lo, hi] = detail::partition(n_paths, t, cfg.threads);
        // BFS scratch lives outside the region body: an abort discards the
        // body's frames without running destructors, so a container local
        // to the body would leak on every aborted routing attempt.
        std::vector<int> parent(kWidth * kHeight);
        std::deque<int> frontier;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto [src, dst] = endpoints[i];
          const auto path_id = static_cast<std::int64_t>(i + 1);
          bool ok = false;
          tallies[t].add(cs.run(ctx, [&] {
            // BFS over currently-free cells (transactional reads).
            ok = false;
            std::fill(parent.begin(), parent.end(), -1);
            parent[src] = src;
            frontier.clear();
            frontier.push_back(src);
            while (!frontier.empty()) {
              const int cur = frontier.front();
              frontier.pop_front();
              if (cur == dst) break;
              const int x = cur % kWidth, y = cur / kWidth;
              const int neighbours[4][2] = {
                  {x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}};
              for (const auto& n : neighbours) {
                if (n[0] < 0 || n[0] >= kWidth || n[1] < 0 ||
                    n[1] >= kHeight) {
                  continue;
                }
                const int idx = cell_index(n[0], n[1]);
                if (parent[idx] != -1) continue;
                if (idx != dst && grid[idx].load(ctx) != kEmpty) continue;
                parent[idx] = cur;
                frontier.push_back(idx);
              }
            }
            if (parent[dst] == -1) return;  // unroutable right now: skip
            // Claim the path (transactional writes along the route).
            for (int cur = dst; cur != src; cur = parent[cur]) {
              grid[cur].store(ctx, path_id);
            }
            grid[src].store(ctx, path_id);
            ok = true;
          }));
          if (ok) ++routed[t];
        }
      });
    }
    sched.run();

    // Invariants: every routed path's endpoints carry its id, and claimed
    // cell counts are consistent (each cell claimed by at most one path is
    // structural — verify endpoints + count cells).
    std::uint64_t total_routed = 0;
    for (const auto r : routed) total_routed += r;
    bool ok = true;
    std::uint64_t claimed_cells = 0;
    std::vector<std::uint64_t> cells_of_path(n_paths + 1, 0);
    for (int i = 0; i < kWidth * kHeight; ++i) {
      const std::int64_t id = grid[i].unsafe_get();
      if (id == kEmpty) continue;
      ++claimed_cells;
      if (id < 0 || static_cast<std::size_t>(id) > n_paths) {
        ok = false;
      } else {
        ++cells_of_path[static_cast<std::size_t>(id)];
      }
    }
    std::uint64_t paths_with_cells = 0;
    for (std::size_t i = 1; i <= n_paths; ++i) {
      if (cells_of_path[i] == 0) continue;
      ++paths_with_cells;
      const auto [src, dst] = endpoints[i - 1];
      if (grid[src].unsafe_get() != static_cast<std::int64_t>(i) ||
          grid[dst].unsafe_get() != static_cast<std::int64_t>(i)) {
        ok = false;  // a partially-claimed path escaped a rollback
      }
      if (cells_of_path[i] < 2) ok = false;
    }
    if (paths_with_cells != total_routed) ok = false;

    auto r = detail::collect("labyrinth",
                             total_routed * 1000003 + claimed_cells,
                             sched.elapsed_cycles(), tallies);
    r.invariants_ok = ok;
    return r;
  });
}

}  // namespace elision::stamp

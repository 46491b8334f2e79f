#include "harness/bt_workload.hpp"

#include "ds/btree.hpp"
#include "locks/schemes.hpp"
#include "support/rng.hpp"

namespace elision::harness {

RunStats run_bt_point_once(const BtPoint& p) {
  // Nothing is ever freed and a leaf interval below 4 keys cannot split
  // again, so the node count is bounded by the key domain; 2*size + slack
  // is comfortably above that bound (see ds/btree.hpp).
  ds::BplusTree tree(p.size * 2 + 256);
  support::Xoshiro256 fill(p.seed);
  std::size_t filled = 0;
  while (filled < p.size) {
    const std::uint64_t key = fill.next_below(p.size * 2);
    if (tree.unsafe_insert(key, key + 1)) ++filled;
  }
  tree.unsafe_distribute_free_lists(p.threads);
  return locks::with_lock<locks::SharedLocks>(p.lock, [&]<typename Lock>() {
    Lock lock;
    locks::CriticalSection<Lock> cs(p.policy, lock);
    BenchConfig cfg;
    cfg.threads = p.threads;
    cfg.duration_sec = p.duration_sec;
    cfg.duration_scale = env_duration_scale();
    cfg.machine.seed = p.seed;
    cfg.timeline_slot_cycles = p.timeline_slot_cycles;
    cfg.policy = p.policy;
    cfg.telemetry = p.telemetry;
    cfg.avalanche = p.avalanche;
    const std::uint64_t domain = p.size * 2;
    const int half_updates = p.update_pct / 2;
    return run_workload(cfg, [&](tsx::Ctx& ctx) {
      auto& rng = ctx.thread().rng();
      const std::uint64_t key = rng.next_below(domain);
      const auto dice = static_cast<int>(rng.next_below(100));
      const auto read_dice = static_cast<int>(rng.next_below(100));
      if (dice < half_updates) {
        return cs.run_exclusive(ctx, [&] { tree.insert(ctx, key, key + 1); });
      }
      if (dice < p.update_pct) {
        return cs.run_exclusive(ctx, [&] { tree.erase(ctx, key); });
      }
      // Reads run under the point's policy mode (the shared-vs-exclusive
      // comparison axis).
      if (read_dice < p.scan_pct) {
        return cs.run(ctx, [&] {
          std::uint64_t sum;
          tree.range_sum(ctx, key, p.scan_len, &sum);
        });
      }
      return cs.run(ctx, [&] {
        std::uint64_t v;
        tree.lookup(ctx, key, &v);
      });
    });
  });
}

}  // namespace elision::harness

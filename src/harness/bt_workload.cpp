#include "harness/bt_workload.hpp"

#include "ds/btree.hpp"
#include "harness/invariants.hpp"
#include "locks/schemes.hpp"
#include "support/rng.hpp"

namespace elision::harness {

namespace {

template <typename Lock>
RunStats run_bt_with_lock(const BenchConfig& cfg, const BtRun& run,
                          ds::BplusTree& tree) {
  Lock lock;
  locks::CriticalSection<Lock> cs(cfg.policy, lock);
  const std::uint64_t domain = run.size * 2;
  Invariants* const sink = cfg.invariants;
  return run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::uint64_t key = rng.next_below(domain);
    const auto dice = static_cast<int>(rng.next_below(100));
    const auto read_dice = static_cast<int>(rng.next_below(100));
    const bool update = run.writer_threads > 0
                            ? ctx.id() < run.writer_threads
                            : dice < run.update_pct;
    // A dedicated writer splits its whole dice range.
    const int insert_below = run.writer_threads > 0 ? 50 : run.update_pct / 2;
    // A scan is a lookup that reads no value.
    KeyedOp op{.value = key + 1, .expected = key + 1};
    if (update) {
      op.kind = dice < insert_below ? KeyedOp::kInsert : KeyedOp::kErase;
    }
    const auto body = [&] {
      if (update) {
        op.hit = op.kind == KeyedOp::kInsert ? tree.insert(ctx, key, key + 1)
                                             : tree.erase(ctx, key);
        return;
      }
      if (run.read_dwell_cycles != 0) {
        ctx.engine().compute(ctx, run.read_dwell_cycles);
      }
      if (read_dice < run.scan_pct) {
        std::uint64_t sum;
        tree.range_sum(ctx, key, run.scan_len, &sum);
      } else {
        op.hit = tree.lookup(ctx, key, &op.value);
      }
    };
    if (update && run.writer_gap_cycles != 0) {
      ctx.engine().compute(ctx, run.writer_gap_cycles);
    }
    // Updates take the lock exclusive; reads follow the policy's mode (the
    // suite's shared-vs-exclusive comparison axis).
    const locks::AccessMode mode =
        update ? locks::AccessMode::kExclusive : cfg.policy.mode;
    if (sink == nullptr) return cs.run_mode(ctx, mode, body);
    const locks::RegionResult r =
        cs.run_mode(ctx, mode, [&] { sink->occupy(ctx, mode, body); });
    sink->completed(ctx, op);
    return r;
  });
}

}  // namespace

RunStats run_bt(const BenchConfig& cfg, const BtRun& run) {
  // Nothing is ever freed and a leaf interval below 4 keys cannot split
  // again, so the node count is bounded by the key domain; 2*size + slack
  // is comfortably above that bound (see ds/btree.hpp).
  ds::BplusTree tree(run.size * 2 + 256);
  support::Xoshiro256 fill(cfg.machine.seed);
  std::size_t filled = 0;
  while (filled < run.size) {
    const std::uint64_t key = fill.next_below(run.size * 2);
    if (tree.unsafe_insert(key, key + 1)) ++filled;
  }
  tree.unsafe_distribute_free_lists(cfg.threads);
  RunStats stats =
      locks::with_lock<locks::AllLocks>(run.lock, [&]<typename Lock>() {
        return run_bt_with_lock<Lock>(cfg, run, tree);
      });
  if (cfg.invariants != nullptr) {
    cfg.invariants->check_set("btree", run.size, tree);
  }
  return stats;
}

RunStats run_bt_point_once(const BtPoint& p) {
  BenchConfig cfg;
  cfg.threads = p.threads;
  cfg.duration_sec = p.duration_sec;
  cfg.duration_scale = env_duration_scale();
  cfg.machine.seed = p.seed;
  cfg.timeline_slot_cycles = p.timeline_slot_cycles;
  cfg.policy = p.policy;
  cfg.telemetry = p.telemetry;
  cfg.avalanche = p.avalanche;
  return run_bt(cfg, {.size = p.size,
                      .lock = p.lock,
                      .update_pct = p.update_pct,
                      .scan_pct = p.scan_pct,
                      .scan_len = p.scan_len});
}

}  // namespace elision::harness

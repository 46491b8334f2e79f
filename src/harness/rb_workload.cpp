#include "harness/rb_workload.hpp"

#include <algorithm>
#include <type_traits>

#include "ds/hashtable.hpp"
#include "ds/rbtree.hpp"
#include "ds/skiplist.hpp"
#include "harness/invariants.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "support/rng.hpp"

namespace elision::harness {

namespace {

template <typename Lock, typename Set>
RunStats run_with_lock(const BenchConfig& cfg, const KeyedRun& run, Set& set) {
  Lock lock;
  locks::CriticalSection<Lock> cs(cfg.policy, lock);
  const std::uint64_t domain = run.size * 2;
  Invariants* const sink = cfg.invariants;
  auto stats = run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& st = ctx.thread();
    const int update_pct =
        run.phase_cycles != 0 && st.now() / run.phase_cycles == 1
            ? run.storm_update_pct
            : run.update_pct;
    const int half_updates = update_pct / 2;
    auto& rng = st.rng();
    const std::uint64_t key = rng.next_below(domain);
    const auto dice = static_cast<int>(rng.next_below(100));
    KeyedOp op{.kind = dice < half_updates ? KeyedOp::kInsert
                       : dice < update_pct ? KeyedOp::kErase
                                           : KeyedOp::kLookup,
               .value = key,
               .expected = key};
    // The hash table stores each key as its own value.
    const auto body = [&] {
      if constexpr (std::is_same_v<Set, ds::HashTable>) {
        op.hit = op.kind == KeyedOp::kInsert ? set.insert(ctx, key, key)
                 : op.kind == KeyedOp::kErase ? set.erase(ctx, key)
                                              : set.lookup(ctx, key, &op.value);
      } else {
        op.hit = op.kind == KeyedOp::kInsert ? set.insert(ctx, key)
                 : op.kind == KeyedOp::kErase ? set.erase(ctx, key)
                                              : set.contains(ctx, key);
      }
    };
    if (sink == nullptr) return cs.run(ctx, body);
    const locks::RegionResult r = cs.run(
        ctx, [&] { sink->occupy(ctx, cfg.policy.mode, body); });
    sink->completed(ctx, op);
    return r;
  });
  if constexpr (std::is_same_v<Lock, locks::TtasLock>) {
    stats.arrivals = lock.arrivals();
    stats.arrivals_lock_held = lock.arrivals_lock_held();
  }
  if (run.adaptive_out != nullptr) *run.adaptive_out = cs.adaptive();
  return stats;
}

// Inserts `size` distinct keys from [0, 2*size), drawn from `seed`.
template <typename Insert>
void prefill(std::size_t size, std::uint64_t seed, Insert&& insert) {
  support::Xoshiro256 fill(seed);
  std::size_t filled = 0;
  while (filled < size) {
    if (insert(fill.next_below(size * 2))) ++filled;
  }
}

// Runs `run` on `set` under its lock, then, with a sink attached, hands
// the sink the set (named `name`) to reconcile.
template <typename Set>
RunStats run_on_set(const BenchConfig& cfg, const KeyedRun& run, Set& set,
                    const char* name) {
  RunStats stats =
      locks::with_lock<locks::AllLocks>(run.lock, [&]<typename Lock>() {
        return run_with_lock<Lock>(cfg, run, set);
      });
  if (cfg.invariants != nullptr) {
    cfg.invariants->check_set(name, run.size, set);
  }
  return stats;
}

}  // namespace

RunStats run_keyed(const BenchConfig& cfg, const KeyedRun& run) {
  // The pool's thread count stays at the default for every historical point
  // (the free array's shape feeds the simulated access stream, so changing
  // it would shift baselines); the 128/256-thread machine-scale points need
  // the per-thread free lists sized to match.
  const int pool_threads = std::max(cfg.threads, tsx::kDefaultPoolThreads);
  const std::uint64_t seed = cfg.machine.seed;
  switch (run.set) {
    case KeyedSet::kRbTree: {
      ds::RbTree tree(run.size * 4 + 256, pool_threads);
      prefill(run.size, seed, [&](std::uint64_t k) {
        return tree.unsafe_insert(k);
      });
      tree.unsafe_distribute_free_lists(cfg.threads);
      return run_on_set(cfg, run, tree, "rbtree");
    }
    case KeyedSet::kHashTable: {
      ds::HashTable table(512, run.size * 4 + 512, cfg.threads, pool_threads);
      prefill(run.size, seed, [&](std::uint64_t k) {
        return table.unsafe_insert(k, k);
      });
      return run_on_set(cfg, run, table, "hashtable");
    }
    case KeyedSet::kSkipList: {
      // 99 is the skiplist's default tower-height seed.
      ds::SkipList list(run.size * 4 + 64, 99, pool_threads);
      prefill(run.size, seed, [&](std::uint64_t k) {
        return list.unsafe_insert(k);
      });
      list.unsafe_distribute_free_lists(cfg.threads);
      return run_on_set(cfg, run, list, "skiplist");
    }
  }
  return {};
}

RunStats run_rb_point_once(const RbPoint& p) {
  BenchConfig cfg;
  cfg.threads = p.threads;
  cfg.duration_sec = p.duration_sec;
  cfg.duration_scale = env_duration_scale();
  cfg.tsx.hardware_extension = p.hardware_extension;
  cfg.machine.seed = p.seed;
  apply_machine_shape(p, cfg.machine);
  cfg.timeline_slot_cycles = p.timeline_slot_cycles;
  cfg.policy = p.scheme;
  cfg.telemetry = p.telemetry;
  cfg.telemetry_sink = p.telemetry_sink;
  cfg.avalanche = p.avalanche;
  return run_keyed(cfg, {.size = p.size,
                         .lock = p.lock,
                         .update_pct = p.update_pct,
                         .adaptive_out = p.adaptive_out});
}

}  // namespace elision::harness

#include "harness/rb_workload.hpp"

#include <algorithm>
#include <cctype>
#include <type_traits>

#include "ds/hashtable.hpp"
#include "ds/rbtree.hpp"
#include "ds/skiplist.hpp"
#include "locks/clh_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "support/rng.hpp"

namespace elision::harness {

const char* lock_sel_name(LockSel s) {
  switch (s) {
    case LockSel::kTtas: return "TTAS";
    case LockSel::kMcs: return "MCS";
    case LockSel::kTicketAdj: return "Ticket-adj";
    case LockSel::kClhAdj: return "CLH-adj";
    case LockSel::kTicket: return "Ticket";
    case LockSel::kClh: return "CLH";
  }
  return "?";
}

std::string lock_sel_slug(LockSel s) {
  std::string out = lock_sel_name(s);
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

std::optional<LockSel> parse_lock_sel(std::string_view slug) {
  for (const LockSel s : kAllLockSels) {
    if (lock_sel_slug(s) == slug) return s;
  }
  return std::nullopt;
}

namespace {

template <typename Lock, typename Set>
RunStats run_with_lock(const BenchConfig& cfg, const KeyedRun& run, Set& set) {
  Lock lock;
  locks::CriticalSection<Lock> cs(cfg.policy, lock);
  const std::uint64_t domain = run.size * 2;
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
    return cs.run(ctx, [&] {
      if (dice < half_updates) {
        if constexpr (std::is_same_v<Set, ds::HashTable>) {
          set.insert(ctx, key, key);
        } else {
          set.insert(ctx, key);
        }
      } else if (dice < update_pct) {
        set.erase(ctx, key);
      } else {
        set.contains(ctx, key);
      }
    });
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

template <typename Set>
RunStats run_on_set(const BenchConfig& cfg, const KeyedRun& run, Set& set) {
  switch (run.lock) {
    case LockSel::kTtas:
      return run_with_lock<locks::TtasLock>(cfg, run, set);
    case LockSel::kMcs:
      return run_with_lock<locks::McsLock>(cfg, run, set);
    case LockSel::kTicketAdj:
      return run_with_lock<locks::TicketLockAdjusted>(cfg, run, set);
    case LockSel::kClhAdj:
      return run_with_lock<locks::ClhLockAdjusted>(cfg, run, set);
    case LockSel::kTicket:
      return run_with_lock<locks::TicketLock>(cfg, run, set);
    case LockSel::kClh:
      return run_with_lock<locks::ClhLock>(cfg, run, set);
  }
  return {};
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
      return run_on_set(cfg, run, tree);
    }
    case KeyedSet::kHashTable: {
      ds::HashTable table(512, run.size * 4 + 512, cfg.threads, pool_threads);
      prefill(run.size, seed, [&](std::uint64_t k) {
        return table.unsafe_insert(k, 1);
      });
      return run_on_set(cfg, run, table);
    }
    case KeyedSet::kSkipList: {
      // 99 is the skiplist's default tower-height seed.
      ds::SkipList list(run.size * 4 + 64, 99, pool_threads);
      prefill(run.size, seed, [&](std::uint64_t k) {
        return list.unsafe_insert(k);
      });
      list.unsafe_distribute_free_lists(cfg.threads);
      return run_on_set(cfg, run, list);
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

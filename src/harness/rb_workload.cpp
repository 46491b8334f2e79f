#include "harness/rb_workload.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "ds/rbtree.hpp"
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

namespace {

template <typename Lock>
RunStats run_rb_with_lock(const RbPoint& p, ds::RbTree& tree) {
  Lock lock;
  locks::CriticalSection<Lock> cs(p.scheme, lock);
  BenchConfig cfg;
  cfg.threads = p.threads;
  cfg.duration_sec = p.duration_sec;
  cfg.duration_scale = env_duration_scale();
  cfg.tsx.hardware_extension = p.hardware_extension;
  cfg.machine.seed = p.seed;
  if (p.n_cores != 0) cfg.machine.n_cores = p.n_cores;
  if (p.smt_per_core != 0) cfg.machine.smt_per_core = p.smt_per_core;
  if (p.yield_slack_cycles != 0) {
    cfg.machine.yield_slack_cycles = p.yield_slack_cycles;
  }
  cfg.timeline_slot_cycles = p.timeline_slot_cycles;
  cfg.policy = p.scheme;
  cfg.telemetry = p.telemetry;
  cfg.avalanche = p.avalanche;
  const std::uint64_t domain = p.size * 2;
  const int half_updates = p.update_pct / 2;
  auto stats = run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::uint64_t key = rng.next_below(domain);
    const auto dice = static_cast<int>(rng.next_below(100));
    return cs.run(ctx, [&] {
      if (dice < half_updates) {
        tree.insert(ctx, key);
      } else if (dice < p.update_pct) {
        tree.erase(ctx, key);
      } else {
        tree.contains(ctx, key);
      }
    });
  });
  if constexpr (std::is_same_v<Lock, locks::TtasLock>) {
    if (p.arrival_held_frac != nullptr) {
      *p.arrival_held_frac =
          lock.arrivals() > 0
              ? static_cast<double>(lock.arrivals_lock_held()) /
                    static_cast<double>(lock.arrivals())
              : 0.0;
    }
  }
  return stats;
}

}  // namespace

RunStats run_rb_point_once(const RbPoint& p) {
  // max_threads stays at the default for every historical point (the free
  // array's shape feeds the simulated access stream, so changing it would
  // shift baselines); the 128/256-thread machine-scale points need the
  // per-thread free lists sized to match.
  ds::RbTree tree(p.size * 4 + 256,
                  std::max(p.threads, tsx::kDefaultPoolThreads));
  support::Xoshiro256 fill(p.seed);
  std::size_t filled = 0;
  while (filled < p.size) {
    if (tree.unsafe_insert(fill.next_below(p.size * 2))) ++filled;
  }
  tree.unsafe_distribute_free_lists(p.threads);
  switch (p.lock) {
    case LockSel::kTtas:
      return run_rb_with_lock<locks::TtasLock>(p, tree);
    case LockSel::kMcs:
      return run_rb_with_lock<locks::McsLock>(p, tree);
    case LockSel::kTicketAdj:
      return run_rb_with_lock<locks::TicketLockAdjusted>(p, tree);
    case LockSel::kClhAdj:
      return run_rb_with_lock<locks::ClhLockAdjusted>(p, tree);
    case LockSel::kTicket:
      return run_rb_with_lock<locks::TicketLock>(p, tree);
    case LockSel::kClh:
      return run_rb_with_lock<locks::ClhLock>(p, tree);
  }
  return {};
}

RunStats run_rb_point(const RbPoint& p) {
  const int n = p.seeds > 0 ? p.seeds : 1;
  std::vector<double> arrivals(static_cast<std::size_t>(n), 0.0);
  RunStats total = run_seeds(
      n, p.seed, p.host_threads, [&](std::size_t s, std::uint64_t seed) {
        RbPoint q = p;
        q.host_threads = 1;
        q.seed = seed;
        q.arrival_held_frac =
            p.arrival_held_frac != nullptr ? &arrivals[s] : nullptr;
        return run_rb_point_once(q);
      });
  double arrival_sum = 0.0;
  for (const double a : arrivals) arrival_sum += a;
  if (p.arrival_held_frac != nullptr) *p.arrival_held_frac = arrival_sum / n;
  return total;
}

}  // namespace elision::harness

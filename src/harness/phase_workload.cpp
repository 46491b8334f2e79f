#include "harness/phase_workload.hpp"

#include "ds/rbtree.hpp"
#include "locks/clh_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "support/rng.hpp"

namespace elision::harness {

std::array<std::uint64_t, kPhaseCount> phase_ops_of(const RunStats& stats) {
  std::array<std::uint64_t, kPhaseCount> out{};
  for (std::size_t s = 0; s < stats.timeline.size(); ++s) {
    const std::size_t p = s < kPhaseCount ? s : kPhaseCount - 1;
    out[p] += stats.timeline[s].ops;
  }
  return out;
}

namespace {

template <typename Lock>
RunStats run_phase_with_lock(const PhasePoint& p, ds::RbTree& tree) {
  Lock lock;
  locks::CriticalSection<Lock> cs(p.scheme, lock);
  BenchConfig cfg;
  cfg.threads = p.threads;
  cfg.duration_sec = p.phase_sec * kPhaseCount;
  cfg.duration_scale = env_duration_scale();
  cfg.machine.seed = p.seed;
  cfg.policy = p.scheme;
  cfg.telemetry = p.telemetry;
  cfg.avalanche = p.avalanche;
  // One timeline slot per phase. Deriving the width from the scaled total
  // keeps the slots phase-aligned under ELISION_BENCH_SCALE too.
  const std::uint64_t phase_cycles = cfg.duration_cycles() / kPhaseCount;
  cfg.timeline_slot_cycles = phase_cycles;
  const std::uint64_t domain = p.size * 2;
  return run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::uint64_t phase = ctx.thread().now() / phase_cycles;
    const int update_pct =
        phase == 1 ? p.storm_update_pct : p.calm_update_pct;
    const int half_updates = update_pct / 2;
    const std::uint64_t key = rng.next_below(domain);
    const auto dice = static_cast<int>(rng.next_below(100));
    return cs.run(ctx, [&] {
      if (dice < half_updates) {
        tree.insert(ctx, key);
      } else if (dice < update_pct) {
        tree.erase(ctx, key);
      } else {
        tree.contains(ctx, key);
      }
    });
  });
}

}  // namespace

RunStats run_phase_point_once(const PhasePoint& p) {
  ds::RbTree tree(p.size * 4 + 256);
  support::Xoshiro256 fill(p.seed);
  std::size_t filled = 0;
  while (filled < p.size) {
    if (tree.unsafe_insert(fill.next_below(p.size * 2))) ++filled;
  }
  tree.unsafe_distribute_free_lists(p.threads);
  switch (p.lock) {
    case LockSel::kTtas:
      return run_phase_with_lock<locks::TtasLock>(p, tree);
    case LockSel::kMcs:
      return run_phase_with_lock<locks::McsLock>(p, tree);
    case LockSel::kTicketAdj:
      return run_phase_with_lock<locks::TicketLockAdjusted>(p, tree);
    case LockSel::kClhAdj:
      return run_phase_with_lock<locks::ClhLockAdjusted>(p, tree);
    case LockSel::kTicket:
      return run_phase_with_lock<locks::TicketLock>(p, tree);
    case LockSel::kClh:
      return run_phase_with_lock<locks::ClhLock>(p, tree);
  }
  return {};
}

RunStats run_phase_point(const PhasePoint& p) {
  // RunStats::accumulate adds timelines slot-wise, so phase attribution
  // survives the seed merge byte-identically at any host_threads.
  return run_seeds(p.seeds, p.seed, p.host_threads,
                   [&](std::size_t, std::uint64_t seed) {
                     PhasePoint q = p;
                     q.host_threads = 1;
                     q.seed = seed;
                     return run_phase_point_once(q);
                   });
}

}  // namespace elision::harness

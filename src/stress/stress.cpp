#include "stress/stress.hpp"

#include <utility>

#include "ds/btree.hpp"
#include "ds/hashtable.hpp"
#include "harness/runner.hpp"
#include "service/sharded_kv.hpp"
#include "locks/clh_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/shared_mcs_lock.hpp"
#include "locks/shared_ttas_lock.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "stress/greedy_shared_lock.hpp"
#include "stress/invariants.hpp"
#include "stress/racy_lock.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace elision::stress {

const char* lock_name(LockKind k) {
  switch (k) {
    case LockKind::kTtas: return locks::TtasLock::kName;
    case LockKind::kMcs: return locks::McsLock::kName;
    case LockKind::kTicket: return locks::TicketLock::kName;
    case LockKind::kTicketAdj: return locks::TicketLockAdjusted::kName;
    case LockKind::kClh: return locks::ClhLock::kName;
    case LockKind::kClhAdj: return locks::ClhLockAdjusted::kName;
    case LockKind::kSharedTtas: return locks::SharedTtasLock::kName;
    case LockKind::kSharedMcs: return locks::SharedMcsLock::kName;
    case LockKind::kRacy: return RacyLock::kName;
    case LockKind::kGreedyShared: return GreedySharedLock::kName;
  }
  return "?";
}

std::vector<LockKind> all_locks() {
  return {LockKind::kTtas,       LockKind::kMcs,      LockKind::kTicket,
          LockKind::kTicketAdj,  LockKind::kClh,      LockKind::kClhAdj,
          LockKind::kSharedTtas, LockKind::kSharedMcs};
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kCounter: return "counter";
    case Workload::kHashTable: return "hashtable";
    case Workload::kBtree: return "btree";
    case Workload::kShardedKv: return "sharded-kv";
  }
  return "?";
}

std::vector<Workload> all_workloads() {
  return {Workload::kCounter, Workload::kHashTable, Workload::kBtree,
          Workload::kShardedKv};
}

std::vector<locks::ElisionPolicy> all_policies() {
  std::vector<locks::ElisionPolicy> v;
  for (const locks::Scheme s : locks::kAllSixSchemes) {
    v.push_back(locks::ElisionPolicy::from_scheme(s));
  }
  v.push_back(locks::ElisionPolicy::rtm_elide());
  // The mode controller migrates between four of the schemes above
  // mid-run; a short window makes it actually move within a stress case.
  v.push_back(locks::ElisionPolicy::adaptive().with_adaptive_window(8));
  return v;
}

std::string case_name(const StressCase& c) {
  std::string s = c.policy.spec();
  s += '/';
  s += lock_name(c.lock);
  s += '/';
  s += workload_name(c.workload);
  s += " pseed=";
  s += std::to_string(c.perturb_seed);
  if (c.perturb_points != 0) {
    s += " budget=";
    s += std::to_string(c.perturb_points);
  }
  return s;
}

namespace {

harness::BenchConfig base_config(const StressOptions& o, const StressCase& c) {
  harness::BenchConfig cfg;
  cfg.threads = o.threads;
  cfg.duration_sec = o.duration_ms / 1e3;
  cfg.machine.seed = o.workload_seed;
  cfg.machine.max_switches = o.max_switches;
  cfg.machine.perturb.probability = o.perturb_probability;
  cfg.machine.perturb.max_delay_cycles = o.perturb_max_delay_cycles;
  cfg.machine.perturb.seed = c.perturb_seed;
  cfg.machine.perturb.max_points = c.perturb_points;
  cfg.policy = c.policy;
  // Algorithm 3 as designed needs HLE nested inside RTM.
  if (c.policy.scheme == locks::Scheme::kHleScmNested) {
    cfg.tsx.allow_hle_in_rtm = true;
  }
  cfg.telemetry = o.telemetry;
  return cfg;
}

void fill_outcome(const harness::RunStats& stats, RunOutcome* out) {
  out->ops = stats.ops;
  out->aborts = stats.tx.aborts;
  out->perturb_points_used = stats.perturb_points;
  out->elapsed_cycles = stats.elapsed_cycles;
  out->avalanche_episodes = stats.episodes.size();
}

void append_watchdog(const StarvationWatchdog& dog, RunOutcome* out) {
  for (const std::string& v : dog.violations()) {
    out->violations.push_back("starvation: " + v);
  }
}

// One hot Shared counter. Every completed region increments it exactly once
// (a committed transaction or a genuinely locked execution), so after the
// run it must equal the harness's completed-op count: any racy overlap of
// two non-speculative bodies manifests as a lost update.
template <typename Lock>
RunOutcome run_counter(const StressOptions& o, const StressCase& c) {
  harness::BenchConfig cfg = base_config(o, c);
  Lock lock;
  locks::CriticalSection<Lock> cs(cfg.policy, lock);
  tsx::Shared<std::uint64_t> counter(0);
  MutualExclusionChecker mutex;
  StarvationWatchdog dog(o.threads, o.starvation_gap_cycles,
                         o.starvation_min_other_ops);
  cfg.on_region_complete = [&dog](tsx::Ctx& ctx, const locks::RegionResult&) {
    dog.note_completion(ctx.id(), ctx.thread().now());
  };
  const harness::RunStats stats =
      harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        return cs.run(ctx, [&] {
          mutex.occupy(ctx, [&] {
            counter.store(ctx, counter.load(ctx) + 1);
            ctx.engine().compute(ctx, 20);
          });
        });
      });
  dog.finish(stats.elapsed_cycles);

  RunOutcome out;
  fill_outcome(stats, &out);
  if (counter.unsafe_get() != stats.ops) {
    out.violations.push_back(
        "lost updates: counter=" + std::to_string(counter.unsafe_get()) +
        " completed ops=" + std::to_string(stats.ops));
  }
  if (mutex.violations() > 0) {
    out.violations.push_back(
        "mutual exclusion: " + std::to_string(mutex.violations()) +
        " overlapping non-speculative critical sections");
  }
  append_watchdog(dog, &out);
  return out;
}

// Mixed insert/erase/lookup over the chained hash table. The net insertion
// balance is tracked in a Shared counter (so speculative replays roll it
// back together with the structure) and reconciled against the table's
// actual size; the structure itself is validated node-by-node afterwards.
template <typename Lock>
RunOutcome run_hashtable(const StressOptions& o, const StressCase& c) {
  harness::BenchConfig cfg = base_config(o, c);
  Lock lock;
  locks::CriticalSection<Lock> cs(cfg.policy, lock);
  ds::HashTable table(o.hashtable_buckets, o.hashtable_capacity, o.threads);
  // Prefill half the key domain so erase/lookup hit from the start.
  std::uint64_t prefilled = 0;
  for (std::uint64_t k = 0; k < o.hashtable_key_domain; k += 2) {
    if (table.unsafe_insert(k, k * 3)) ++prefilled;
  }
  tsx::Shared<std::uint64_t> net(prefilled);
  MutualExclusionChecker mutex;
  StarvationWatchdog dog(o.threads, o.starvation_gap_cycles,
                         o.starvation_min_other_ops);
  cfg.on_region_complete = [&dog](tsx::Ctx& ctx, const locks::RegionResult&) {
    dog.note_completion(ctx.id(), ctx.thread().now());
  };
  // Host-side, set-only: committed stores are always key*3, and the TM
  // buffers speculative writes until commit, so no execution — not even a
  // doomed one — should ever observe anything else.
  std::uint64_t torn_values = 0;
  const harness::RunStats stats =
      harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        const std::uint64_t key =
            ctx.thread().rng().next_below(o.hashtable_key_domain);
        const std::uint64_t dice = ctx.thread().rng().next_below(100);
        return cs.run(ctx, [&] {
          mutex.occupy(ctx, [&] {
            if (dice < 35) {
              if (table.insert(ctx, key, key * 3)) {
                net.store(ctx, net.load(ctx) + 1);
              }
            } else if (dice < 70) {
              if (table.erase(ctx, key)) {
                net.store(ctx, net.load(ctx) - 1);
              }
            } else {
              std::uint64_t v = 0;
              if (table.lookup(ctx, key, &v) && v != key * 3) ++torn_values;
            }
          });
        });
      });
  dog.finish(stats.elapsed_cycles);

  RunOutcome out;
  fill_outcome(stats, &out);
  std::string why;
  if (!table.unsafe_validate(&why)) {
    out.violations.push_back("hashtable structure: " + why);
  }
  if (net.unsafe_get() != table.unsafe_size()) {
    out.violations.push_back(
        "hashtable net size: tracked " + std::to_string(net.unsafe_get()) +
        " but table holds " + std::to_string(table.unsafe_size()));
  }
  if (torn_values > 0) {
    out.violations.push_back("hashtable torn values: " +
                             std::to_string(torn_values) +
                             " lookups observed value != 3*key");
  }
  if (mutex.violations() > 0) {
    out.violations.push_back(
        "mutual exclusion: " + std::to_string(mutex.violations()) +
        " overlapping non-speculative critical sections");
  }
  append_watchdog(dog, &out);
  return out;
}

// B+tree mix over the two-mode lock API: updates run exclusive, reads run
// *shared* on shared-capable locks (and exclusive on single-mode ones, so
// the workload still crosses the whole lock grid). On top of the structural
// checks this is where the reader-writer invariants live: a writer
// occupancy must exclude everything, readers may overlap each other, and the
// RoleLockoutChecker watches for either role being locked out — the
// writer-starvation hazard the planted GreedySharedLock self-test trips.
template <typename Lock>
RunOutcome run_btree(const StressOptions& o, const StressCase& c) {
  harness::BenchConfig cfg = base_config(o, c);
  Lock lock;
  locks::CriticalSection<Lock> cs(cfg.policy, lock);
  // Capacity bound: nothing is ever freed and a leaf interval below half
  // capacity cannot split again (see ds/btree.hpp).
  ds::BplusTree tree(o.btree_size * 2 + 256);
  const std::uint64_t domain = o.btree_size * 2;
  std::uint64_t prefilled = 0;
  for (std::uint64_t k = 0; k < domain; k += 2) {
    if (tree.unsafe_insert(k, k + 1)) ++prefilled;
  }
  tree.unsafe_distribute_free_lists(o.threads);
  tsx::Shared<std::uint64_t> net(prefilled);
  SharedMutualExclusionChecker rw_mutex;
  RoleLockoutChecker roles(o.starvation_gap_cycles,
                           o.starvation_min_other_ops);
  StarvationWatchdog dog(o.threads, o.starvation_gap_cycles,
                         o.starvation_min_other_ops);
  cfg.on_region_complete = [&dog](tsx::Ctx& ctx, const locks::RegionResult&) {
    dog.note_completion(ctx.id(), ctx.thread().now());
  };
  std::uint64_t torn_values = 0;
  const int half_updates = o.btree_update_pct / 2;
  const harness::RunStats stats =
      harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        const std::uint64_t key = ctx.thread().rng().next_below(domain);
        const std::uint64_t dice = ctx.thread().rng().next_below(100);
        const std::uint64_t read_dice = ctx.thread().rng().next_below(100);
        // Role assignment: per-op dice by default; with dedicated writer
        // threads, low thread ids update and the rest only read (a pure
        // reader crowd is what keeps a writer-lockout window open — a
        // mixed-duty thread that blocks as a writer stops reading, so the
        // crowd self-drains).
        const bool is_update =
            o.btree_writer_threads > 0
                ? ctx.id() < o.btree_writer_threads
                : dice < static_cast<std::uint64_t>(o.btree_update_pct);
        // Inserts take the lower half of the update dice range — the whole
        // [0, 100) range for a dedicated writer, [0, update_pct) otherwise.
        const std::uint64_t insert_below = static_cast<std::uint64_t>(
            o.btree_writer_threads > 0 ? 50 : half_updates);
        if (is_update) {
          if (o.btree_writer_gap_cycles != 0) {
            ctx.engine().compute(ctx, o.btree_writer_gap_cycles);
          }
          const locks::RegionResult r = cs.run_exclusive(ctx, [&] {
            rw_mutex.as_writer(ctx, [&] {
              if (dice < insert_below) {
                if (tree.insert(ctx, key, key + 1)) {
                  net.store(ctx, net.load(ctx) + 1);
                }
              } else if (tree.erase(ctx, key)) {
                net.store(ctx, net.load(ctx) - 1);
              }
            });
          });
          roles.note_writer(ctx.thread().now());
          return r;
        }
        const auto read_body = [&] {
          rw_mutex.as_reader(ctx, [&] {
            if (o.btree_read_dwell_cycles != 0) {
              ctx.engine().compute(ctx, o.btree_read_dwell_cycles);
            }
            if (read_dice < static_cast<std::uint64_t>(o.btree_scan_pct)) {
              std::uint64_t sum = 0;
              tree.range_sum(ctx, key, o.btree_scan_len, &sum);
              return;
            }
            std::uint64_t v = 0;
            if (tree.lookup(ctx, key, &v) && v != key + 1) ++torn_values;
          });
        };
        locks::RegionResult r;
        if constexpr (locks::detail::kHasSharedMode<Lock>) {
          r = cs.run_shared(ctx, read_body);
        } else {
          r = cs.run_exclusive(ctx, read_body);
        }
        roles.note_reader(ctx.thread().now());
        return r;
      });
  dog.finish(stats.elapsed_cycles);
  roles.finish(stats.elapsed_cycles);

  RunOutcome out;
  fill_outcome(stats, &out);
  std::string why;
  if (!tree.unsafe_validate(&why)) {
    out.violations.push_back("btree structure: " + why);
  }
  if (net.unsafe_get() != tree.unsafe_size()) {
    out.violations.push_back(
        "btree net size: tracked " + std::to_string(net.unsafe_get()) +
        " but tree holds " + std::to_string(tree.unsafe_size()));
  }
  if (torn_values > 0) {
    out.violations.push_back("btree torn values: " +
                             std::to_string(torn_values) +
                             " lookups observed value != key+1");
  }
  if (rw_mutex.violations() > 0) {
    out.violations.push_back(
        "rw mutual exclusion: " + std::to_string(rw_mutex.violations()) +
        " non-speculative writer overlaps");
  }
  for (const std::string& v : roles.violations()) {
    out.violations.push_back("role lockout: " + v);
  }
  append_watchdog(dog, &out);
  return out;
}

// Sharded KV service: the single-shard mix plus the cross-shard
// transactions (multi_put across up to three shards, transfer between two).
// Every completed mutation's committed delta — reported by the service's
// out-params, so retried attempts don't double-count — feeds a host-side
// ledger of the expected summed stored value. A cross-shard region that
// tears (one shard's half commits, the other's is lost) conserves each
// shard's *internal* consistency, so only this end-to-end ledger catches
// it; transfer is value-conserving by construction and so contributes
// nothing, making lost transfer halves directly visible. On top of that,
// unsafe_validate audits per-shard structure, key routing, and the
// track_totals in-region totals.
template <typename Lock>
RunOutcome run_sharded_kv(const StressOptions& o, const StressCase& c) {
  harness::BenchConfig cfg = base_config(o, c);
  typename service::ShardedKvT<Lock>::Config kcfg;
  kcfg.shards = o.kv_shards;
  kcfg.keys = static_cast<std::size_t>(o.kv_key_domain);
  kcfg.threads = o.threads;
  kcfg.policy = cfg.policy;
  kcfg.track_totals = true;
  service::ShardedKvT<Lock> kv(kcfg);
  std::int64_t ledger = 0;
  for (std::uint64_t k = 0; k < o.kv_key_domain; k += 2) {
    if (kv.unsafe_put(k, k + 5)) ledger += static_cast<std::int64_t>(k + 5);
  }
  kv.unsafe_distribute_free_lists(o.threads);
  StarvationWatchdog dog(o.threads, o.starvation_gap_cycles,
                         o.starvation_min_other_ops);
  cfg.on_region_complete = [&dog](tsx::Ctx& ctx, const locks::RegionResult&) {
    dog.note_completion(ctx.id(), ctx.thread().now());
  };
  const harness::RunStats stats =
      harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        auto& rng = ctx.thread().rng();
        const std::uint64_t key = rng.next_below(o.kv_key_domain);
        const std::uint64_t dice = rng.next_below(100);
        if (dice < 20) {
          const std::uint64_t value = 1 + rng.next_below(100);
          std::uint64_t old = 0;
          const auto r = kv.put(ctx, key, value, nullptr, &old);
          ledger += static_cast<std::int64_t>(value) -
                    static_cast<std::int64_t>(old);
          return r;
        }
        if (dice < 30) {
          bool hit = false;
          std::uint64_t old = 0;
          const auto r = kv.erase(ctx, key, &hit, &old);
          if (hit) ledger -= static_cast<std::int64_t>(old);
          return r;
        }
        if (dice < 40) {
          service::KvPair pairs[3];
          for (auto& p : pairs) {
            p.key = rng.next_below(o.kv_key_domain);
            p.value = 1 + rng.next_below(100);
          }
          std::int64_t d = 0;
          const auto r = kv.multi_put(ctx, pairs, 3, &d);
          ledger += d;
          return r;
        }
        if (dice < 60) {
          const std::uint64_t to = rng.next_below(o.kv_key_domain);
          return kv.transfer(ctx, key, to, 1 + rng.next_below(50));
        }
        std::uint64_t v = 0;
        return kv.get(ctx, key, &v);
      });
  dog.finish(stats.elapsed_cycles);

  RunOutcome out;
  fill_outcome(stats, &out);
  std::string why;
  if (!kv.unsafe_validate(&why)) {
    out.violations.push_back("sharded-kv structure: " + why);
  }
  const auto total = static_cast<std::int64_t>(kv.unsafe_total_value());
  if (total != ledger) {
    out.violations.push_back(
        "sharded-kv lost update: stored values sum to " +
        std::to_string(total) + " but the committed-op ledger expects " +
        std::to_string(ledger));
  }
  append_watchdog(dog, &out);
  return out;
}

template <typename Lock>
RunOutcome run_with(const StressOptions& o, const StressCase& c) {
  switch (c.workload) {
    case Workload::kCounter: return run_counter<Lock>(o, c);
    case Workload::kHashTable: return run_hashtable<Lock>(o, c);
    case Workload::kBtree: return run_btree<Lock>(o, c);
    case Workload::kShardedKv: return run_sharded_kv<Lock>(o, c);
  }
  ELISION_CHECK_MSG(false, "unknown workload");
  return {};
}

}  // namespace

RunOutcome run_case(const StressOptions& o, const StressCase& c) {
  switch (c.lock) {
    case LockKind::kTtas: return run_with<locks::TtasLock>(o, c);
    case LockKind::kMcs: return run_with<locks::McsLock>(o, c);
    case LockKind::kTicket: return run_with<locks::TicketLock>(o, c);
    case LockKind::kTicketAdj:
      return run_with<locks::TicketLockAdjusted>(o, c);
    case LockKind::kClh: return run_with<locks::ClhLock>(o, c);
    case LockKind::kClhAdj: return run_with<locks::ClhLockAdjusted>(o, c);
    case LockKind::kSharedTtas:
      return run_with<locks::SharedTtasLock>(o, c);
    case LockKind::kSharedMcs: return run_with<locks::SharedMcsLock>(o, c);
    case LockKind::kRacy:
      ELISION_CHECK_MSG(c.policy.scheme == locks::Scheme::kStandard,
                        "RacyLock is a standard-scheme self-test instrument");
      return run_with<RacyLock>(o, c);
    case LockKind::kGreedyShared:
      ELISION_CHECK_MSG(
          c.policy.scheme == locks::Scheme::kStandard,
          "GreedySharedLock is a standard-scheme self-test instrument");
      return run_with<GreedySharedLock>(o, c);
  }
  ELISION_CHECK_MSG(false, "unknown lock kind");
  return {};
}

Minimized minimize_case(const StressOptions& o, StressCase c) {
  Minimized best;
  best.points = c.perturb_points;
  best.outcome = run_case(o, c);
  if (best.outcome.ok()) return best;
  // Pin the budget to what the failing run actually used, then keep halving
  // while the failure reproduces. Greedy, not exhaustive: failures need not
  // be monotone in the budget, so this finds *a* small repro, cheaply.
  std::uint64_t points = best.outcome.perturb_points_used;
  if (points == 0) {
    best.points = 0;
    return best;  // fails with no injections at all: nothing to shrink
  }
  for (;;) {
    c.perturb_points = points;
    RunOutcome trial = run_case(o, c);
    if (!trial.ok()) {
      best.points = points;
      best.outcome = std::move(trial);
      if (points <= 1) break;
      points /= 2;
    } else {
      break;
    }
  }
  return best;
}

SweepStats sweep(
    const StressOptions& o, const std::vector<locks::ElisionPolicy>& policies,
    const std::vector<LockKind>& locks, const std::vector<Workload>& workloads,
    std::uint64_t first_seed, int n_seeds,
    const std::function<void(const StressCase&, const RunOutcome&)>& on_run) {
  // Flatten the seed x policy x lock x workload grid into a job vector in
  // the order the nested loops have always visited it; every cell is an
  // independent Scheduler+Engine simulation, so the runs fan out across
  // host threads while each outcome lands in its own grid slot.
  std::vector<StressCase> grid;
  grid.reserve(static_cast<std::size_t>(n_seeds) * policies.size() *
               locks.size() * workloads.size());
  for (int i = 0; i < n_seeds; ++i) {
    for (const locks::ElisionPolicy& policy : policies) {
      for (const LockKind lock : locks) {
        for (const Workload workload : workloads) {
          StressCase c;
          c.policy = policy;
          c.lock = lock;
          c.workload = workload;
          c.perturb_seed = first_seed + static_cast<std::uint64_t>(i);
          grid.push_back(c);
        }
      }
    }
  }

  std::vector<RunOutcome> outcomes(grid.size());
  support::parallel_for_each(
      grid.size(), [&](std::size_t j) { outcomes[j] = run_case(o, grid[j]); },
      o.host_threads);

  // Aggregate in grid order: counters, failure reports and on_run callbacks
  // are byte-identical to a sequential sweep regardless of host_threads.
  // Minimization re-runs a failing case under successively halved budgets —
  // an inherently serial search (each budget depends on the previous
  // outcome), so it stays here rather than in the fan-out.
  SweepStats stats;
  for (std::size_t j = 0; j < grid.size(); ++j) {
    const StressCase& c = grid[j];
    const RunOutcome& out = outcomes[j];
    ++stats.runs;
    stats.total_ops += out.ops;
    if (!out.ok()) {
      FailureReport f;
      f.c = c;
      if (o.minimize) {
        const Minimized m = minimize_case(o, c);
        f.outcome = m.outcome;
        f.minimized_points = m.points;
      } else {
        f.outcome = out;
        f.minimized_points = c.perturb_points;
      }
      stats.failures.push_back(std::move(f));
    }
    if (on_run) on_run(c, out);
  }
  return stats;
}

}  // namespace elision::stress

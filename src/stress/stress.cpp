#include "stress/stress.hpp"

#include <utility>

#include "harness/bt_workload.hpp"
#include "harness/invariants.hpp"
#include "harness/rb_workload.hpp"
#include "locks/schemes.hpp"
#include "service/sharded_kv.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace elision::stress {

namespace {

// How a workload runs: stress's own counter and sharded-KV bodies, or the
// suite's keyed-set and B+tree runners.
enum class Body { kCounter, kKeyed, kBt, kShardedKv };

struct WorkloadRow {
  Workload id;
  const char* name;
  Body body;
  harness::KeyedRun keyed;  // the shape of a kKeyed workload
  harness::BtRun bt;        // the shape of the kBt workload
  bool planted_may_run;     // see planted_may_run()
};

// Every workload in Workload order. The keyed sets run a 35/35/30
// insert/erase/lookup mix over 128 keys (half of them prefilled); the
// B+tree runs 10/10 inserts/erases, its reads 30% eight-key scans.
const WorkloadRow kWorkloads[] = {
    {Workload::kCounter, "counter", Body::kCounter, {}, {}, true},
    {Workload::kRbTree, "rbtree", Body::kKeyed,
     {.set = harness::KeyedSet::kRbTree, .size = 64, .update_pct = 70},
     {}, false},
    {Workload::kHashTable, "hashtable", Body::kKeyed,
     {.set = harness::KeyedSet::kHashTable, .size = 64, .update_pct = 70},
     {}, true},
    {Workload::kSkipList, "skiplist", Body::kKeyed,
     {.set = harness::KeyedSet::kSkipList, .size = 64, .update_pct = 70},
     {}, false},
    {Workload::kBtree, "btree", Body::kBt, {},
     {.size = 96, .update_pct = 20, .scan_pct = 30, .scan_len = 8}, true},
    {Workload::kShardedKv, "sharded-kv", Body::kShardedKv, {}, {}, false},
};

const WorkloadRow& row_of(Workload w) {
  const WorkloadRow& row = kWorkloads[static_cast<std::size_t>(w)];
  ELISION_CHECK(row.id == w);
  return row;
}

}  // namespace

const char* workload_name(Workload w) { return row_of(w).name; }

std::vector<Workload> all_workloads() {
  std::vector<Workload> out;
  for (const WorkloadRow& row : kWorkloads) out.push_back(row.id);
  return out;
}

bool planted_may_run(Workload w) { return row_of(w).planted_may_run; }

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
  s += locks::lock_name(c.lock);
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

harness::BenchConfig base_config(const StressOptions& o, const StressCase& c,
                                 harness::Invariants* sink) {
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
  cfg.invariants = sink;
  return cfg;
}

// One hot Shared counter. Every completed region increments it exactly once
// (a committed transaction or a genuinely locked execution), so after the
// run it must equal the harness's completed-op count: any racy overlap of
// two non-speculative bodies manifests as a lost update.
template <typename Lock>
harness::RunStats run_counter(const harness::BenchConfig& cfg,
                              std::vector<std::string>* violations) {
  Lock lock;
  locks::CriticalSection<Lock> cs(cfg.policy, lock);
  tsx::Shared<std::uint64_t> counter(0);
  harness::Invariants& sink = *cfg.invariants;
  const harness::RunStats stats =
      harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        const locks::RegionResult r = cs.run(ctx, [&] {
          sink.occupy(ctx, locks::AccessMode::kExclusive, [&] {
            counter.store(ctx, counter.load(ctx) + 1);
            ctx.engine().compute(ctx, 20);
          });
        });
        sink.completed(ctx);
        return r;
      });
  if (counter.unsafe_get() != stats.ops) {
    violations->push_back(
        "lost updates: counter=" + std::to_string(counter.unsafe_get()) +
        " completed ops=" + std::to_string(stats.ops));
  }
  return stats;
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
harness::RunStats run_sharded_kv(const StressOptions& o,
                                 const harness::BenchConfig& cfg,
                                 std::vector<std::string>* violations) {
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
  harness::Invariants& sink = *cfg.invariants;
  const auto op = [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::uint64_t key = rng.next_below(o.kv_key_domain);
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 20) {
      const std::uint64_t value = 1 + rng.next_below(100);
      std::uint64_t old = 0;
      const auto r = kv.put(ctx, key, value, nullptr, &old);
      ledger +=
          static_cast<std::int64_t>(value) - static_cast<std::int64_t>(old);
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
  };
  const harness::RunStats stats =
      harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        const locks::RegionResult r = op(ctx);
        sink.completed(ctx);
        return r;
      });

  std::string why;
  if (!kv.unsafe_validate(&why)) {
    violations->push_back("sharded-kv structure: " + why);
  }
  const auto total = static_cast<std::int64_t>(kv.unsafe_total_value());
  if (total != ledger) {
    violations->push_back(
        "sharded-kv lost update: stored values sum to " +
        std::to_string(total) + " but the committed-op ledger expects " +
        std::to_string(ledger));
  }
  return stats;
}

}  // namespace

RunOutcome run_case(const StressOptions& o, const StressCase& c) {
  const bool planted = locks::lock_has(c.lock, locks::kPlanted);
  ELISION_CHECK_MSG(!planted || c.policy.scheme == locks::Scheme::kStandard,
                    "a planted lock is a standard-scheme self-test instrument");
  const WorkloadRow& w = row_of(c.workload);
  ELISION_CHECK_MSG(!planted || w.planted_may_run,
                    "a planted lock can make this workload loop forever");
  harness::Invariants sink(o.threads, o.starvation_gap_cycles,
                           o.starvation_min_other_ops);
  harness::BenchConfig cfg = base_config(o, c, &sink);
  RunOutcome out;
  harness::RunStats stats;
  switch (w.body) {
    case Body::kCounter:
      stats = locks::with_lock<locks::AllLocks>(c.lock, [&]<typename Lock>() {
        return run_counter<Lock>(cfg, &out.violations);
      });
      break;
    case Body::kKeyed: {
      harness::KeyedRun run = w.keyed;
      run.lock = c.lock;
      stats = harness::run_keyed(cfg, run);
      break;
    }
    case Body::kBt: {
      harness::BtRun run = w.bt;
      run.lock = c.lock;
      run.writer_threads = o.btree_writer_threads;
      run.writer_gap_cycles = o.btree_writer_gap_cycles;
      run.read_dwell_cycles = o.btree_read_dwell_cycles;
      // Reads run shared on a two-mode lock, exclusive on the others.
      cfg.policy = cfg.policy.with_mode(
          locks::lock_has(c.lock, locks::kSharedMode)
              ? locks::AccessMode::kShared
              : locks::AccessMode::kExclusive);
      stats = harness::run_bt(cfg, run);
      break;
    }
    case Body::kShardedKv:
      stats = locks::with_lock<locks::AllLocks>(c.lock, [&]<typename Lock>() {
        return run_sharded_kv<Lock>(o, cfg, &out.violations);
      });
      break;
  }
  out.ops = stats.ops;
  out.aborts = stats.tx.aborts;
  out.perturb_points_used = stats.perturb_points;
  out.elapsed_cycles = stats.elapsed_cycles;
  for (std::string& v : sink.finish(stats.elapsed_cycles)) {
    out.violations.push_back(std::move(v));
  }
  return out;
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
    const std::vector<locks::LockId>& locks,
    const std::vector<Workload>& workloads,
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
      for (const locks::LockId lock : locks) {
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

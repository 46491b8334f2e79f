#include "figures.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "ds/rbtree.hpp"
#include "harness/rb_workload.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/suite.hpp"
#include "locks/backoff_lock.hpp"
#include "locks/grouped_scm.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/scm.hpp"
#include "locks/ttas_lock.hpp"
#include "sim/scheduler.hpp"
#include "stamp/common.hpp"
#include "support/align.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tsx/shared.hpp"

namespace elision::figures {
namespace {

using harness::fmt;
using harness::fmt_int;
using harness::kMixes;
using harness::kTreeSizes;
using harness::kTreeSizesSmall;
using harness::RbPoint;
using harness::run_point;
using harness::RunStats;
using harness::Table;
using locks::ElisionPolicy;
using locks::lock_name;
using locks::LockId;
using locks::Scheme;

constexpr LockId kTtasMcs[] = {LockId::kTtas, LockId::kMcs};

// ---- Figure 2.1 ----

struct SizePoint {
  const char* label;
  std::size_t bytes;
};

const SizePoint kSetSizes[] = {
    {"128", 128},       {"512", 512},       {"2K", 2048},
    {"8K", 8192},       {"32K", 32768},     {"128K", 131072},
    {"512K", 524288},   {"2M", 2097152},    {"4M", 4194304},
    {"6M", 6291456},    {"8M", 8388608},
};

double failure_fraction(bool write, std::size_t bytes, std::size_t trials,
                        tsx::SharedArray<std::uint64_t>& arena) {
  const std::size_t lines = bytes / support::kCacheLineBytes;
  sim::MachineConfig mcfg;
  mcfg.n_cores = 1;
  mcfg.smt_per_core = 1;
  sim::Scheduler sched(mcfg);
  tsx::Engine eng(sched);  // default (Haswell-like) TSX config
  std::size_t failures = 0;
  sched.spawn([&](sim::SimThread& t) {
    auto& ctx = eng.context(t);
    for (std::size_t i = 0; i < trials; ++i) {
      const unsigned st = eng.run_transaction(ctx, [&] {
        // Touch one word in each of `lines` consecutive cache lines.
        for (std::size_t l = 0; l < lines; ++l) {
          auto& word = arena[l * 8];
          if (write) {
            word.store(ctx, i);
          } else {
            (void)word.load(ctx);
          }
        }
      });
      if (st != tsx::kCommitted) ++failures;
    }
  });
  sched.run();
  return static_cast<double>(failures) / static_cast<double>(trials);
}

void fig2_1() {
  const double scale = harness::env_duration_scale();
  // 8 MB = 131072 lines; 8 shared words per line.
  tsx::SharedArray<std::uint64_t> arena(8388608 / 8);
  Table table({"set-size", "read-failure-frac", "write-failure-frac"});
  for (const auto& s : kSetSizes) {
    const std::size_t lines = s.bytes / 64;
    const auto trials = std::max<std::size_t>(
        64, static_cast<std::size_t>(scale * 2.0e6 /
                                     static_cast<double>(lines)));
    const double rf = failure_fraction(false, s.bytes, trials, arena);
    const double wf = failure_fraction(true, s.bytes, trials, arena);
    table.add_row({s.label, fmt(rf, 6), fmt(wf, 6)});
  }
  table.print();
}

// ---- Chapter 3: the avalanche ----

void fig3_1() {
  Table table({"lock", "tree-size", "speedup-vs-std", "attempts-per-op",
               "nonspec-frac", "arrival-lock-held-frac"});
  for (const LockId lock : kTtasMcs) {
    for (const std::size_t size : kTreeSizes) {
      RbPoint p;
      p.size = size;
      p.update_pct = 20;
      p.lock = lock;
      p.scheme = ElisionPolicy::standard();
      const auto std_stats = run_point(p);
      p.scheme = ElisionPolicy::hle();
      const auto hle_stats = run_point(p);
      // Pooled over seeds, like every other column.
      const double arrival_held =
          hle_stats.arrivals > 0
              ? static_cast<double>(hle_stats.arrivals_lock_held) /
                    static_cast<double>(hle_stats.arrivals)
              : 0.0;

      table.add_row({lock_name(lock), fmt_int(size),
                     fmt(hle_stats.throughput() / std_stats.throughput(), 2),
                     fmt(hle_stats.attempts_per_op(), 2),
                     fmt(hle_stats.nonspec_fraction(), 3),
                     lock == LockId::kTtas ? fmt(arrival_held, 3)
                                            : std::string("-")});
    }
  }
  table.print();
}

void timeline_for(LockId lock) {
  RbPoint p;
  p.size = 64;
  p.update_pct = 20;
  p.lock = lock;
  p.scheme = ElisionPolicy::hle();
  p.duration_sec = 0.004;
  // 1 ms slots in the paper; use 100 us so the short run has ~40 slots.
  p.timeline_slot_cycles = 340000;
  const auto stats = run_point(p);

  // The timeline merges all seed runs slot-wise, so normalize against the
  // average over populated slots (elapsed_cycles spans seeds sequentially
  // and would overstate the slot count by the seed multiplier).
  std::uint64_t timeline_ops = 0;
  std::size_t populated = 0;
  for (const auto& slot : stats.timeline) {
    if (slot.ops == 0) continue;
    timeline_ops += slot.ops;
    ++populated;
  }
  if (populated == 0) return;
  const double avg_ops =
      static_cast<double>(timeline_ops) / static_cast<double>(populated);
  std::printf("\n-- %s lock (HLE), 100us slots --\n", lock_name(lock));
  Table table({"slot", "normalized-throughput", "nonspec-frac"});
  for (std::size_t s = 0; s < stats.timeline.size(); ++s) {
    const auto& slot = stats.timeline[s];
    if (slot.ops == 0) continue;
    table.add_row({fmt_int(s),
                   fmt(static_cast<double>(slot.ops) / avg_ops, 3),
                   fmt(static_cast<double>(slot.nonspec_ops) /
                           static_cast<double>(slot.ops),
                       3)});
  }
  table.print();
}

void fig3_3() {
  timeline_for(LockId::kMcs);
  timeline_for(LockId::kTtas);
}

void fig3_4() {
  for (const int threads : {4, 8}) {
    std::printf("\n-- %d threads --\n", threads);
    Table table({"mix", "lock", "tree-size", "hle-speedup"});
    for (const auto& mix : kMixes) {
      for (const LockId lock : kTtasMcs) {
        for (const std::size_t size : kTreeSizesSmall) {
          RbPoint p;
          p.size = size;
          p.update_pct = mix.update_pct;
          p.threads = threads;
          p.lock = lock;
          p.scheme = ElisionPolicy::standard();
          const auto std_stats = run_point(p);
          p.scheme = ElisionPolicy::hle();
          const auto hle_stats = run_point(p);
          table.add_row(
              {mix.name, lock_name(lock), fmt_int(size),
               fmt(hle_stats.throughput() / std_stats.throughput(), 2)});
        }
      }
    }
    table.print();
  }
}

void fig3_5() {
  Table table({"mix", "lock", "tree-size", "hle-speedup", "rtm-speedup"});
  for (const auto& mix : kMixes) {
    for (const LockId lock : kTtasMcs) {
      for (const std::size_t size : kTreeSizesSmall) {
        RbPoint p;
        p.size = size;
        p.update_pct = mix.update_pct;
        p.lock = lock;
        p.scheme = ElisionPolicy::standard();
        const auto std_stats = run_point(p);
        p.scheme = ElisionPolicy::hle();
        const auto hle_stats = run_point(p);
        p.scheme = ElisionPolicy::rtm_elide();
        const auto rtm_stats = run_point(p);
        table.add_row({mix.name, lock_name(lock), fmt_int(size),
                       fmt(hle_stats.throughput() / std_stats.throughput(), 2),
                       fmt(rtm_stats.throughput() / std_stats.throughput(),
                           2)});
      }
    }
  }
  table.print();
}

// ---- Chapter 5: the software-assisted schemes ----

// Single thread, no locking at all: Fig 5.1's normalization baseline.
double no_lock_baseline() {
  ds::RbTree tree(128 * 4 + 256);
  support::Xoshiro256 fill(42);
  std::size_t filled = 0;
  while (filled < 128) {
    if (tree.unsafe_insert(fill.next_below(256))) ++filled;
  }
  tree.unsafe_distribute_free_lists(1);
  harness::BenchConfig cfg;
  cfg.threads = 1;
  cfg.duration_sec = 0.0015;
  cfg.duration_scale = harness::env_duration_scale();
  const auto stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& rng = ctx.thread().rng();
    const std::uint64_t key = rng.next_below(256);
    const auto dice = static_cast<int>(rng.next_below(100));
    if (dice < 10) {
      tree.insert(ctx, key);
    } else if (dice < 20) {
      tree.erase(ctx, key);
    } else {
      tree.contains(ctx, key);
    }
    return locks::RegionResult{.speculative = false, .attempts = 1};
  });
  return stats.throughput();
}

void fig5_1() {
  const double base = no_lock_baseline();
  for (const LockId lock : kTtasMcs) {
    std::printf("\n-- %s lock --\n", lock_name(lock));
    Table table({"scheme", "1-thread", "2-threads", "4-threads",
                 "8-threads"});
    for (const auto scheme : {Scheme::kStandard, Scheme::kHle,
                              Scheme::kHleScm, Scheme::kOptSlr,
                              Scheme::kOptSlrScm}) {
      std::vector<std::string> row{locks::scheme_name(scheme)};
      for (const int threads : {1, 2, 4, 8}) {
        RbPoint p;
        p.size = 128;
        p.update_pct = 20;
        p.threads = threads;
        p.lock = lock;
        p.scheme = ElisionPolicy::from_scheme(scheme);
        row.push_back(fmt(run_point(p).throughput() / base, 2));
      }
      table.add_row(std::move(row));
    }
    table.print();
  }
}

void fig5_2() {
  for (const auto& mix : kMixes) {
    std::printf("\n-- %s --\n", mix.name);
    Table table({"lock", "tree-size", "HLE-SCM", "pes-SLR", "opt-SLR",
                 "opt-SLR-SCM"});
    for (const LockId lock : kTtasMcs) {
      for (const std::size_t size : kTreeSizesSmall) {
        RbPoint p;
        p.size = size;
        p.update_pct = mix.update_pct;
        p.lock = lock;
        p.scheme = ElisionPolicy::hle();
        const double hle = run_point(p).throughput();
        std::vector<std::string> row{lock_name(lock), fmt_int(size)};
        for (const auto scheme : {Scheme::kHleScm, Scheme::kPesSlr,
                                  Scheme::kOptSlr, Scheme::kOptSlrScm}) {
          p.scheme = ElisionPolicy::from_scheme(scheme);
          row.push_back(fmt(run_point(p).throughput() / hle, 2));
        }
        table.add_row(std::move(row));
      }
    }
    table.print();
  }
}

void fig5_3() {
  std::printf("\n-- MCS: HLE vs HLE-SCM --\n");
  {
    Table table({"tree-size", "HLE att/op", "HLE nonspec", "HLE-SCM att/op",
                 "HLE-SCM nonspec", "SCM-speedup-vs-HLE"});
    for (const std::size_t size : kTreeSizesSmall) {
      RbPoint p;
      p.size = size;
      p.update_pct = 100;
      p.lock = LockId::kMcs;
      p.scheme = ElisionPolicy::hle();
      const auto hle = run_point(p);
      p.scheme = ElisionPolicy::hle_scm();
      const auto scm = run_point(p);
      table.add_row({fmt_int(size), fmt(hle.attempts_per_op(), 2),
                     fmt(hle.nonspec_fraction(), 3),
                     fmt(scm.attempts_per_op(), 2),
                     fmt(scm.nonspec_fraction(), 3),
                     fmt(scm.throughput() / hle.throughput(), 2)});
    }
    table.print();
  }
  std::printf("\n-- TTAS: the software-assisted schemes --\n");
  {
    Table table({"tree-size", "scheme", "att/op", "nonspec-frac",
                 "speedup-vs-HLE"});
    for (const std::size_t size : kTreeSizesSmall) {
      RbPoint p;
      p.size = size;
      p.update_pct = 100;
      p.lock = LockId::kTtas;
      p.scheme = ElisionPolicy::hle();
      const auto hle = run_point(p);
      for (const auto scheme :
           {Scheme::kHleScm, Scheme::kOptSlr, Scheme::kOptSlrScm}) {
        p.scheme = ElisionPolicy::from_scheme(scheme);
        const auto s = run_point(p);
        table.add_row({fmt_int(size), locks::scheme_name(scheme),
                       fmt(s.attempts_per_op(), 2),
                       fmt(s.nonspec_fraction(), 3),
                       fmt(s.throughput() / hle.throughput(), 2)});
      }
    }
    table.print();
  }
}

void fig5_4() {
  const double scale = harness::env_duration_scale();
  // Every (lock, app, scheme) cell is an independent simulation. Build the
  // whole job grid up front — the standard-scheme baseline followed by the
  // six evaluated schemes per app — fan it out across host threads
  // (every hardware thread), and print from the in-order results, so the
  // tables are byte-identical at any host-thread count.
  std::vector<stamp::StampJob> jobs;
  for (const LockId lock : locks::StampLocks::kIds) {
    for (const char* app : stamp::kAllAppNames) {
      stamp::StampConfig cfg;
      cfg.lock = lock;
      cfg.scale = 0.25 * scale;
      cfg.scheme = Scheme::kStandard;
      jobs.push_back({app, cfg});
      for (const auto scheme : locks::kAllSixSchemes) {
        cfg.scheme = scheme;
        jobs.push_back({app, cfg});
      }
    }
  }
  const std::vector<stamp::StampResult> results =
      stamp::run_apps(jobs, support::host_hardware_threads());

  std::size_t j = 0;
  for (const LockId lock : locks::StampLocks::kIds) {
    std::printf("\n-- %s lock --\n", lock_name(lock));
    Table table({"app", "scheme", "norm-time", "att/op", "nonspec-frac"});
    // The paper's seven configurations plus the labyrinth extension.
    for (const char* app : stamp::kAllAppNames) {
      const auto& base = results[j++];
      for (const auto scheme : locks::kAllSixSchemes) {
        const auto& r = results[j++];
        table.add_row({app, locks::scheme_name(scheme),
                       fmt(static_cast<double>(r.elapsed_cycles) /
                               static_cast<double>(base.elapsed_cycles),
                           3),
                       fmt(r.attempts_per_op(), 2),
                       fmt(r.nonspec_fraction(), 3)});
      }
    }
    table.print();
  }
}

// ---- Chapters 6 and 7 ----

void tbl_fairlocks() {
  Table table({"lock", "tree-size", "scheme", "speedup-vs-std", "att/op",
               "nonspec-frac"});
  for (const LockId lock : {LockId::kTicket, LockId::kClh,
                             LockId::kTicketAdj, LockId::kClhAdj,
                             LockId::kMcs}) {
    for (const std::size_t size : {64ULL, 2048ULL, 32768ULL}) {
      RbPoint p;
      p.size = size;
      p.update_pct = 20;
      p.lock = lock;
      p.scheme = ElisionPolicy::standard();
      const double std_thr = run_point(p).throughput();
      for (const auto scheme : {Scheme::kHle, Scheme::kHleScm}) {
        p.scheme = ElisionPolicy::from_scheme(scheme);
        const auto stats = run_point(p);
        table.add_row({lock_name(lock), fmt_int(size),
                       locks::scheme_name(scheme),
                       fmt(stats.throughput() / std_thr, 2),
                       fmt(stats.attempts_per_op(), 2),
                       fmt(stats.nonspec_fraction(), 3)});
      }
    }
  }
  table.print();
}

void fig7() {
  for (const auto& mix : kMixes) {
    std::printf("\n-- %s --\n", mix.name);
    Table table({"lock", "tree-size", "HLE Mops/s", "ext Mops/s",
                 "ext-speedup", "HLE att/op", "ext att/op", "HLE nonspec",
                 "ext nonspec"});
    for (const LockId lock : kTtasMcs) {
      for (const std::size_t size : {8ULL, 128ULL, 2048ULL, 32768ULL}) {
        RbPoint p;
        p.size = size;
        p.update_pct = mix.update_pct;
        p.lock = lock;
        p.scheme = ElisionPolicy::hle();
        p.hardware_extension = false;
        const auto plain = run_point(p);
        p.hardware_extension = true;
        const auto ext = run_point(p);
        table.add_row({lock_name(lock), fmt_int(size),
                       fmt(plain.throughput() / 1e6, 2),
                       fmt(ext.throughput() / 1e6, 2),
                       fmt(ext.throughput() / plain.throughput(), 2),
                       fmt(plain.attempts_per_op(), 2),
                       fmt(ext.attempts_per_op(), 2),
                       fmt(plain.nonspec_fraction(), 3),
                       fmt(ext.nonspec_fraction(), 3)});
      }
    }
    table.print();
  }
}

// ---- keyed-set tables and ablations (harness::run_keyed) ----

// 8 threads on the default machine, seeded like the set's prefill.
harness::BenchConfig keyed_cfg(const ElisionPolicy& policy) {
  harness::BenchConfig cfg;
  cfg.duration_scale = harness::env_duration_scale();
  cfg.machine.seed = 42;
  cfg.policy = policy;
  return cfg;
}

// Mops/s, att/op and nonspec of every (mix, size, lock, six-scheme) cell.
void keyed_set_table(harness::KeyedSet set, const std::size_t (&sizes)[2],
                     double duration_sec) {
  Table table({"mix", "lock", "size", "scheme", "Mops/s", "att/op",
               "nonspec"});
  for (const auto& mix : kMixes) {
    for (const std::size_t size : sizes) {
      for (const LockId lock : kTtasMcs) {
        for (const auto scheme : locks::kAllSixSchemes) {
          harness::BenchConfig cfg =
              keyed_cfg(ElisionPolicy::from_scheme(scheme));
          cfg.duration_sec = duration_sec;
          const auto stats = harness::run_keyed(
              cfg, {.set = set,
                    .size = size,
                    .lock = lock,
                    .update_pct = mix.update_pct});
          table.add_row({mix.name, lock_name(lock), fmt_int(size),
                         locks::scheme_name(scheme),
                         fmt(stats.throughput() / 1e6, 2),
                         fmt(stats.attempts_per_op(), 2),
                         fmt(stats.nonspec_fraction(), 3)});
        }
      }
    }
  }
  table.print();
}

void tbl_hashtable() {
  keyed_set_table(harness::KeyedSet::kHashTable, {64, 1024}, 0.0015);
}

void tbl_skiplist() {
  keyed_set_table(harness::KeyedSet::kSkipList, {128, 4096},
                  harness::BenchConfig{}.duration_sec);
}

void abl_tuning() {
  {
    Table table({"max-retries", "Mops/s"});
    for (const int r : {0, 1, 2, 5, 10, 20, 50}) {
      const auto stats = harness::run_keyed(
          keyed_cfg(ElisionPolicy::hle_scm().with_scm_retries(r)),
          {.size = 128, .lock = LockId::kMcs, .update_pct = 100});
      table.add_row({fmt_int(r), fmt(stats.throughput() / 1e6, 2)});
    }
    table.print();
  }

  // The spurious and backoff sections draw their own op sequences (lookups
  // only; a coin flip between insert and erase), and backoff-TTAS is not a
  // registry lock, so they keep their own loops.
  harness::banner("Ablation: spurious-abort sensitivity (Sec 2.2)",
                  "HLE-MCS on a lookup-only 2K tree: even pure-read "
                  "workloads serialize when spurious aborts rise.\n"
                  "Expect: non-spec fraction grows with the spurious rate.");
  {
    Table table({"spurious-per-begin", "Mops/s", "nonspec-frac"});
    for (const double p : {0.0, 1e-5, 1e-4, 1e-3, 1e-2}) {
      const std::size_t size = 2048;
      ds::RbTree tree(size * 4 + 256);
      support::Xoshiro256 fill(42);
      std::size_t filled = 0;
      while (filled < size) {
        if (tree.unsafe_insert(fill.next_below(size * 2))) ++filled;
      }
      tree.unsafe_distribute_free_lists(8);
      locks::McsLock lock;
      locks::CriticalSection<locks::McsLock> cs(ElisionPolicy::hle(), lock);
      harness::BenchConfig cfg;
      cfg.duration_scale = harness::env_duration_scale();
      cfg.tsx.spurious_per_begin = p;
      cfg.tsx.spurious_per_access = p / 50;  // scale both spurious knobs
      const auto stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        const std::uint64_t key = ctx.thread().rng().next_below(size * 2);
        return cs.run(ctx, [&] { tree.contains(ctx, key); });
      });
      table.add_row({fmt(p, 5), fmt(stats.throughput() / 1e6, 2),
                     fmt(stats.nonspec_fraction(), 3)});
    }
    table.print();
  }

  harness::banner("Ablation: backoff mitigation vs SCM fix (Ch. 8)",
                  "128-node tree, 50i/50d, 8 threads: TTAS vs "
                  "backoff-TTAS vs TTAS+SCM under HLE.\n"
                  "Expect: backoff softens the avalanche; SCM removes it.");
  {
    Table table({"lock/scheme", "Mops/s", "att/op", "nonspec"});
    auto run_one = [&](const char* name, auto&& runner) {
      ds::RbTree tree(128 * 4 + 256);
      support::Xoshiro256 fill(42);
      std::size_t filled = 0;
      while (filled < 128) {
        if (tree.unsafe_insert(fill.next_below(256))) ++filled;
      }
      tree.unsafe_distribute_free_lists(8);
      harness::BenchConfig cfg;
      cfg.duration_scale = harness::env_duration_scale();
      const auto stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
        auto& rng = ctx.thread().rng();
        const std::uint64_t key = rng.next_below(256);
        const bool ins = rng.next_below(2) == 0;
        return runner(ctx, [&] {
          if (ins) {
            tree.insert(ctx, key);
          } else {
            tree.erase(ctx, key);
          }
        });
      });
      table.add_row({name, fmt(stats.throughput() / 1e6, 2),
                     fmt(stats.attempts_per_op(), 2),
                     fmt(stats.nonspec_fraction(), 3)});
    };
    locks::TtasLock plain;
    run_one("TTAS HLE", [&](tsx::Ctx& ctx, auto body) {
      return locks::hle_region(ctx, plain, body);
    });
    locks::BackoffTtasLock backoff;
    run_one("TTAS-backoff HLE", [&](tsx::Ctx& ctx, auto body) {
      return locks::hle_region(ctx, backoff, body);
    });
    locks::TtasLock scm_main;
    locks::McsLock scm_aux;
    run_one("TTAS HLE-SCM", [&](tsx::Ctx& ctx, auto body) {
      return locks::scm_region(ctx, scm_main, scm_aux, locks::ScmParams{},
                               body);
    });
    table.print();
  }
}

// Algorithm 3 as designed nests HLE inside an RTM transaction; Haswell
// cannot, so the paper evaluated a workaround that reads the lock and
// aborts when it is held (Ch. 4 Remark). The simulator can do both.
void abl_scm_nested() {
  Table table({"tree-size", "update-pct", "workaround Mops/s",
               "nested Mops/s", "ratio"});
  for (const std::size_t size : {64ULL, 2048ULL}) {
    for (const int update : {20, 100}) {
      auto run = [&](bool nested) {
        harness::BenchConfig cfg =
            keyed_cfg(nested ? ElisionPolicy::hle_scm_nested()
                             : ElisionPolicy::hle_scm());
        cfg.tsx.allow_hle_in_rtm = nested;
        return harness::run_keyed(
            cfg, {.size = size, .lock = LockId::kTtas, .update_pct = update});
      };
      const auto workaround = run(false);
      const auto nested = run(true);
      table.add_row({fmt_int(size), fmt_int(update),
                     fmt(workaround.throughput() / 1e6, 2),
                     fmt(nested.throughput() / 1e6, 2),
                     fmt(nested.throughput() / workaround.throughput(), 2)});
    }
  }
  table.print();
}

// Grouping by conflict line reaches parity with single-aux SCM at best. Two
// effects limit it: (1) aborts caused by an acquired main lock carry no
// conflict location to group by, and (2) fresh first-attempt speculators
// race the auxiliary-lock holder, so in hammering regimes the MAX_RETRIES
// give-up path dominates both schemes. Serializing by conflict *graph* (as
// the remark hints) would need more than per-abort locations.
std::uint64_t grouped_run(bool grouped, int groups_n, std::uint64_t cs_compute,
                          double conflict_prob) {
  sim::MachineConfig m;
  tsx::TsxConfig tc;
  locks::TtasLock main;
  locks::AuxLockBank<locks::McsLock, 8> bank;
  locks::McsLock single_aux;
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> hot(groups_n);
  std::vector<support::CacheAligned<tsx::Shared<std::uint64_t>>> priv(8);
  sim::Scheduler sched(m);
  tsx::Engine eng(sched, tc);
  std::uint64_t ops = 0;
  for (int t = 0; t < 8; ++t) {
    sched.spawn([&, t](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      auto& mine = hot[t % groups_n].value;
      auto& own = priv[t].value;
      while (!st.stop_requested()) {
        const bool conflicting = st.rng().next_double() < conflict_prob;
        auto body = [&] {
          auto& target = conflicting ? mine : own;
          target.store(ctx, target.load(ctx) + 1);
          ctx.engine().compute(ctx, cs_compute);
        };
        if (grouped) {
          locks::grouped_scm_region(ctx, main, bank,
                                    locks::GroupedScmParams{}, body);
        } else {
          locks::scm_region(ctx, main, single_aux, locks::ScmParams{}, body);
        }
        ++ops;
      }
    });
  }
  sched.run_for(sched.config().cycles(0.0005 * harness::env_duration_scale()));
  return ops;
}

void abl_grouped_scm() {
  Table table({"hot-words", "cs-cycles", "conflict-prob", "single-SCM ops",
               "grouped-SCM ops", "ratio"});
  for (const int groups : {2, 4}) {
    for (const std::uint64_t compute : {300ULL, 2000ULL}) {
      for (const double p : {1.0, 0.3}) {
        const std::uint64_t s = grouped_run(false, groups, compute, p);
        const std::uint64_t g = grouped_run(true, groups, compute, p);
        table.add_row({fmt_int(groups), fmt_int(compute), fmt(p, 1),
                       fmt_int(s), fmt_int(g),
                       fmt(static_cast<double>(g) / s, 2)});
      }
    }
  }
  table.print();
}

// SLR with no conflict management retries purely in hardware. Under
// requestor-wins conflicting retries keep killing each other (the
// livelock-proneness the paper cites as motivation for SCM); under
// oldest-wins (TLR, Rajwar & Goodman) the oldest transaction survives.
void abl_conflict_policy() {
  Table table({"tree-size", "policy", "scheme", "Mops/s", "att/op",
               "nonspec"});
  for (const std::size_t size : {16ULL, 128ULL, 2048ULL}) {
    for (const auto policy : {tsx::ConflictPolicy::kRequestorWins,
                              tsx::ConflictPolicy::kOldestWins}) {
      for (const auto scheme : {Scheme::kOptSlr, Scheme::kOptSlrScm}) {
        harness::BenchConfig cfg =
            keyed_cfg(ElisionPolicy::from_scheme(scheme));
        cfg.tsx.conflict_policy = policy;
        const auto stats = harness::run_keyed(
            cfg, {.size = size, .lock = LockId::kTtas, .update_pct = 100});
        table.add_row(
            {fmt_int(size),
             policy == tsx::ConflictPolicy::kRequestorWins ? "req-wins"
                                                           : "oldest-wins",
             locks::scheme_name(scheme), fmt(stats.throughput() / 1e6, 2),
             fmt(stats.attempts_per_op(), 2),
             fmt(stats.nonspec_fraction(), 3)});
      }
    }
  }
  table.print();
}

const Figure kFigures[] = {
    {"fig2.1", "Figure 2.1",
     "Sporadic speculative failures: failure fraction vs read/write set "
     "size (1 thread, no contention).\n"
     "Expect: spurious floor at small sizes; hard write cliff above 32K "
     "(L1); reads survive past L2 (256K), rising failures toward L3 (8M).",
     fig2_1},
    {"fig3.1", "Figure 3.1",
     "Avalanche effect, 8 threads, 10i/10d/80l.\n"
     "Expect: MCS-HLE ~fully non-speculative with ~2 attempts/op and ~1x "
     "speedup; TTAS-HLE recovers (non-spec fraction well below 1, real "
     "speedup).",
     fig3_1},
    {"fig3.3", "Figure 3.3",
     "Serialization dynamics of an HLE execution over time (size 64, 8 "
     "threads, 10i/10d/80l).\n"
     "Expect: MCS non-spec fraction ~1 in every slot; TTAS fluctuating "
     "throughput correlated with non-spec bursts.",
     fig3_3},
    {"fig3.4", "Figure 3.4",
     "HLE speedup vs the standard version of each lock, by contention "
     "level.\n"
     "Expect: TTAS speedups > 1 (largest without contention); MCS ~1 "
     "everywhere.",
     fig3_4},
    {"fig3.5", "Figure 3.5",
     "HLE-based vs RTM-based lock elision (8 threads).\n"
     "Expect: the two mechanisms give comparable speedups for both locks "
     "at every point.",
     fig3_5},
    {"fig5.1", "Figure 5.1",
     "Scheme scaling on a 128-node tree, 10i/10d/80l, normalized to 1 "
     "thread with no locking.\n"
     "Expect: SCM/SLR schemes scale with threads; HLE-MCS flat; the MCS vs "
     "TTAS gap closes under the software-assisted schemes.",
     fig5_1},
    {"fig5.2", "Figure 5.2",
     "Speedup of HLE-SCM / pes-SLR / opt-SLR / opt-SLR-SCM over the "
     "plain-HLE lock (8 threads).\n"
     "Expect: MCS gains 2-10x everywhere; TTAS gains grow with contention; "
     "pes-SLR poor on TTAS.",
     fig5_2},
    {"fig5.3", "Figure 5.3",
     "Impact of aborts under the software-assisted schemes (8 threads, "
     "50i/50d).\n"
     "Expect: HLE-SCM attempts/op converge to ~1 with tree size, non-spec "
     "fraction ~0; HLE-MCS stays at ~2 attempts and ~1 non-spec.",
     fig5_3},
    {"fig5.4", "Figure 5.4",
     "STAMP, 8 threads: normalized run time (lower is better), attempts "
     "per critical section, non-spec fraction.\n"
     "Expect: HLE-MCS ~1.0 everywhere; HLE-SCM and opt-SLR well below 1; "
     "intruder the best plain-HLE TTAS case.",
     fig5_4},
    {"fig7", "Chapter 7 hardware extension",
     "HLE vs HLE+extension (8 threads).\n"
     "Expect: the extension reduces attempts/op and the non-speculative "
     "fraction, recovering throughput lost to the avalanche.",
     fig7},
    {"tbl-fairlocks", "Chapter 6 fair locks",
     "Ticket/CLH HLE adjustments (8 threads, 10i/10d/80l).\n"
     "Expect: unadjusted ticket/CLH fully non-speculative under HLE; "
     "adjusted versions match MCS dynamics; HLE-SCM rescues all fair "
     "locks.",
     tbl_fairlocks},
    {"tbl-hashtable", "Hash-table benchmark (Sec 5.2)",
     "Short-transaction data structure, 8 threads.\n"
     "Expect: same qualitative picture as the small-tree red-black results "
     "— HLE-MCS flat, SCM restores concurrency for both locks.",
     tbl_hashtable},
    {"tbl-skiplist", "Skiplist benchmark (extension)",
     "The tree results, cross-checked on a skiplist: HLE-MCS flat, SCM "
     "restores concurrency, 8 threads.",
     tbl_skiplist},
    {"abl-tuning", "Ablation: SCM MAX_RETRIES (Sec 5.1 tuning)",
     "128-node tree, 50i/50d, 8 threads, MCS main lock.\n"
     "Expect: a plateau around the paper's value of 10; very small values "
     "give up (and avalanche) too early.",
     abl_tuning},
    {"abl-scm-nested",
     "Ablation: SCM nested-HLE design vs RTM workaround (Ch. 4 Remark)",
     "8 threads, TTAS main lock.\n"
     "Expect: the workaround used in the paper's evaluation performs "
     "comparably to the intended nested design.",
     abl_scm_nested},
    {"abl-grouped-scm", "Ablation: grouped SCM (future work, Ch. 4 Remark)",
     "Throughput of single-aux SCM vs per-conflict-line grouped SCM, 8 "
     "threads.\n"
     "Finding: parity at best — see the header comment.",
     abl_grouped_scm},
    {"abl-conflict-policy",
     "Ablation: conflict policy (requestor-wins vs oldest-wins)",
     "opt-SLR and opt-SLR-SCM on a contended tree under both hardware "
     "policies, 8 threads, 50i/50d.\n"
     "Expect: oldest-wins narrows the gap SCM closes — TLR-style hardware "
     "serialization is the hardware analogue of the paper's software "
     "scheme.",
     abl_conflict_policy},
};

}  // namespace

std::span<const Figure> all() { return kFigures; }

const Figure* find(std::string_view id) {
  for (const Figure& f : kFigures) {
    if (id == f.id) return &f;
  }
  return nullptr;
}

}  // namespace elision::figures

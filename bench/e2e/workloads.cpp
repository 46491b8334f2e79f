// The five workloads, each built from the public layer APIs exactly as the
// program's own entry points build the same point (run_rb_point_once,
// run_bt_point_once, run_kv_point_once; `--selfcheck` proves the digests
// agree), plus the spans and timestamps the benchmark measures with.

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <type_traits>

#include "ds/btree.hpp"
#include "ds/rbtree.hpp"
#include "e2e.hpp"
#include "harness/metrics.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/shared_ttas_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "service/sharded_kv.hpp"
#include "service/traffic.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace elision::e2e {

namespace {

using harness::BenchConfig;
using harness::QuantileHistogram;
using harness::RunStats;

std::vector<Workload> make_workloads() {
  using locks::ElisionPolicy;
  std::vector<Workload> v;
  // Fig 3.3's avalanche (suite point rb-s64-u20-t8-mcs-hle, telemetry off):
  // host time goes to fiber switches, the tsx fast path is nearly idle.
  Workload w{"rb-avalanche", Kind::kRb, {}, {}, {}};
  w.rb.size = 64;
  w.rb.update_pct = 20;
  w.rb.threads = 8;
  w.rb.lock = harness::LockSel::kMcs;
  w.rb.scheme = ElisionPolicy::hle();
  w.rb.duration_sec = 0.003;
  v.push_back(w);
  // Fig 5.2's SCM fix on the same tree and mix: conflict aborts, the tsx
  // slow path and the locks SCM rejoin path do the work.
  w.name = "rb-scm";
  w.rb.lock = harness::LockSel::kTtas;
  w.rb.scheme = ElisionPolicy::hle_scm();
  v.push_back(w);
  // The same mix on 64 threads of a 32x2 machine with yield slack: the only
  // workload on the two-level ready queue and with 64 fiber stacks.
  w.name = "rb-wide64";
  w.rb.threads = 64;
  w.rb.n_cores = 32;
  w.rb.smt_per_core = 2;
  w.rb.yield_slack_cycles = 200;
  w.rb.duration_sec = 0.0015;
  v.push_back(w);
  // Elided shared-mode readers doing 64-key B+tree scans: long transactional
  // read sets served by the owned-line fast path.
  w = Workload{"bt-scan", Kind::kBt, {}, {}, {}};
  w.bt.size = 1024;
  w.bt.update_pct = 10;
  w.bt.scan_pct = 100;
  w.bt.scan_len = 64;
  w.bt.threads = 8;
  w.bt.lock = harness::SharedLockSel::kSharedTtas;
  w.bt.policy = ElisionPolicy::hle().shared();
  w.bt.duration_sec = 0.003;
  v.push_back(w);
  // The hot-shard KV service under open-loop Zipf traffic with telemetry on:
  // few switches per op; the service layer, telemetry rings and avalanche
  // detection do the work.
  w = Workload{"kv-hotshard", Kind::kKv, {}, {}, {}};
  w.kv.shards = 8;
  w.kv.keys = 8192;
  w.kv.clients = 4000;
  w.kv.client_rate_hz = 1000.0;
  w.kv.zipf_theta = 1.20;
  w.kv.put_pct = 40;
  w.kv.multi_put_pct = 5;
  w.kv.transfer_pct = 5;
  w.kv.threads = 8;
  w.kv.policy = ElisionPolicy::hle();
  w.kv.telemetry = true;
  w.kv.duration_sec = 0.030;
  v.push_back(w);
  return v;
}

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) add(static_cast<unsigned char>(c));
  }
  template <typename Hist>
  void add_hist(const Hist& h) {
    add(h.samples());
    add(h.sum());
    add(h.max());
    add(h.buckets().size());
    for (const std::uint64_t b : h.buckets()) add(b);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// The simulated outcome in RunStats. Leaves out the host-work counters
// (fast-path owned hits, probe skips, bound recomputes) and the avalanche
// line ids, which are host addresses.
std::uint64_t digest_stats(const RunStats& s) {
  Digest d;
  for (const std::uint64_t v : {s.ops, s.spec_ops, s.nonspec_ops, s.attempts,
                                s.elapsed_cycles, s.tx.begins, s.tx.commits,
                                s.tx.aborts}) {
    d.add(v);
  }
  for (const std::uint64_t v : s.tx.aborts_by_cause) d.add(v);
  d.add_hist(s.attempts_hist);
  d.add_hist(s.rejoin_hist);
  d.add(s.episodes.size());
  for (const auto& e : s.episodes) {
    d.add(static_cast<std::uint64_t>(e.trigger_thread));
    d.add(e.start);
    d.add(e.end);
    d.add(e.victims.size());
    for (const int v : e.victims) d.add(static_cast<std::uint64_t>(v));
    d.add(e.aborts);
    d.add(e.serialized_ops);
  }
  d.add(s.telemetry_events);
  d.add(s.telemetry_dropped);
  d.add(s.op_latency.size());
  for (const auto& ol : s.op_latency) {
    d.add(ol.op);
    d.add_hist(ol.hist);
  }
  return d.value();
}

// The BenchConfig the program's entry point builds from the same point.
template <typename Point>
BenchConfig config_of(const Point& p) {
  BenchConfig cfg;
  cfg.threads = p.threads;
  cfg.duration_sec = p.duration_sec;
  cfg.machine.seed = p.seed;
  cfg.timeline_slot_cycles = p.timeline_slot_cycles;
  cfg.telemetry = p.telemetry;
  cfg.avalanche = p.avalanche;
  if constexpr (std::is_same_v<Point, harness::RbPoint>) {
    cfg.policy = p.scheme;
    cfg.tsx.hardware_extension = p.hardware_extension;
    if (p.n_cores != 0) cfg.machine.n_cores = p.n_cores;
    if (p.smt_per_core != 0) cfg.machine.smt_per_core = p.smt_per_core;
    if (p.yield_slack_cycles != 0) {
      cfg.machine.yield_slack_cycles = p.yield_slack_cycles;
    }
  } else {
    cfg.policy = p.policy;
  }
  return cfg;
}

// Calls f with the workload's point, reseeded.
template <typename F>
auto with_point(const Workload& w, std::uint64_t seed, F&& f) {
  if (w.kind == Kind::kRb) {
    harness::RbPoint p = w.rb;
    p.seed = seed;
    return f(p);
  }
  if (w.kind == Kind::kBt) {
    harness::BtPoint p = w.bt;
    p.seed = seed;
    return f(p);
  }
  service::KvPoint p = w.kv;
  p.seed = seed;
  return f(p);
}

// Fills everything a rep reports from its run; `state` digests the final
// data-structure contents.
RepResult collect(const RunStats& s, const RepHooks& h,
                  const QuantileHistogram& latency, std::uint64_t state,
                  const std::string& invalid) {
  RepResult r;
  r.valid = invalid.empty();
  std::snprintf(r.why, sizeof r.why, "%s", invalid.c_str());
  r.stats_digest = digest_stats(s);
  Digest d;
  d.add(r.stats_digest);
  d.add(state);
  d.add_hist(latency);
  r.digest = d.value();
  r.setup_ms = ms_between(h.start, h.first_op);
  r.run_ms = ms_between(h.first_op, h.end);
  r.rep_ms = ms_between(h.start, h.end);
  r.ghz = s.ghz;
  r.ops = s.ops;
  r.spec_ops = s.spec_ops;
  r.attempts = s.attempts;
  r.elapsed_cycles = s.elapsed_cycles;
  r.switches = h.switches;
  r.begins = s.tx.begins;
  r.commits = s.tx.commits;
  const auto cause = [&s](tsx::AbortCause c) {
    return s.tx.aborts_by_cause[static_cast<std::size_t>(c)];
  };
  r.aborts_conflict = cause(tsx::AbortCause::kConflict);
  r.aborts_pause = cause(tsx::AbortCause::kPause);
  r.aborts_explicit = cause(tsx::AbortCause::kExplicit);
  r.owned_hits = s.tx.fp_owned_hits;
  r.probe_skips = s.tx.fp_probe_skips;
  r.telemetry_events = s.telemetry_events;
  r.telemetry_dropped = s.telemetry_dropped;
  r.episodes = s.episodes.size();
  r.p99_cycles = latency.quantile(0.99);
  for (int k = 0; k < service::kKvOpKinds; ++k) {
    for (const auto& ol : s.op_latency) {
      if (ol.op == service::kKvOpNames[k]) {
        r.p99_kind_cycles[k] = ol.hist.quantile(0.99);
      }
    }
  }
  if (h.tracer != nullptr) h.tracer->fill(r);
  return r;
}

std::uint64_t digest_keys(const std::vector<std::uint64_t>& keys) {
  Digest d;
  d.add(keys.size());
  for (const std::uint64_t k : keys) d.add(k);
  return d.value();
}

template <typename Lock>
RepResult rb_rep(const harness::RbPoint& p, RepHooks& h) {
  ds::RbTree tree(p.size * 4 + 256,
                  std::max(p.threads, tsx::kDefaultPoolThreads));
  support::Xoshiro256 fill(p.seed);
  std::size_t filled = 0;
  while (filled < p.size) {
    if (tree.unsafe_insert(fill.next_below(p.size * 2))) ++filled;
  }
  tree.unsafe_distribute_free_lists(p.threads);
  Lock lock;
  locks::CriticalSection<Lock> cs(p.scheme, lock);
  const std::uint64_t domain = p.size * 2;
  const int half_updates = p.update_pct / 2;
  QuantileHistogram latency;
  const RunStats stats =
      harness::run_workload(config_of(p), [&](tsx::Ctx& ctx) {
        Span op(h, kHarnessOp, ctx);
        auto& st = ctx.thread();
        const std::uint64_t begin = st.now();
        auto& rng = st.rng();
        const std::uint64_t key = rng.next_below(domain);
        const auto dice = static_cast<int>(rng.next_below(100));
        locks::RegionResult r;
        {
          Span region(h, kLocksRegion, ctx);
          r = cs.run(ctx, [&] {
            Span call(h, kDsCall, ctx);
            if (dice < half_updates) {
              tree.insert(ctx, key);
            } else if (dice < p.update_pct) {
              tree.erase(ctx, key);
            } else {
              tree.contains(ctx, key);
            }
          });
        }
        latency.add(st.now() - begin);
        h.end_op(ctx);
        return r;
      });
  h.finish();
  std::string why;
  if (!tree.unsafe_validate(&why)) why = "tree invalid: " + why;
  return collect(stats, h, latency, digest_keys(tree.unsafe_keys()), why);
}

RepResult rep(const harness::RbPoint& p, RepHooks& h) {
  if (p.lock == harness::LockSel::kMcs) return rb_rep<locks::McsLock>(p, h);
  ELISION_CHECK(p.lock == harness::LockSel::kTtas);
  return rb_rep<locks::TtasLock>(p, h);
}

RepResult rep(const harness::BtPoint& p, RepHooks& h) {
  ELISION_CHECK(p.lock == harness::SharedLockSel::kSharedTtas);
  ds::BplusTree tree(p.size * 2 + 256);
  support::Xoshiro256 fill(p.seed);
  std::size_t filled = 0;
  while (filled < p.size) {
    const std::uint64_t key = fill.next_below(p.size * 2);
    if (tree.unsafe_insert(key, key + 1)) ++filled;
  }
  tree.unsafe_distribute_free_lists(p.threads);
  locks::SharedTtasLock lock;
  locks::CriticalSection<locks::SharedTtasLock> cs(p.policy, lock);
  const std::uint64_t domain = p.size * 2;
  const int half_updates = p.update_pct / 2;
  QuantileHistogram latency;
  const RunStats stats =
      harness::run_workload(config_of(p), [&](tsx::Ctx& ctx) {
        Span op(h, kHarnessOp, ctx);
        auto& st = ctx.thread();
        const std::uint64_t begin = st.now();
        auto& rng = st.rng();
        const std::uint64_t key = rng.next_below(domain);
        const auto dice = static_cast<int>(rng.next_below(100));
        const auto read_dice = static_cast<int>(rng.next_below(100));
        locks::RegionResult r;
        {
          Span region(h, kLocksRegion, ctx);
          if (dice < half_updates) {
            r = cs.run_exclusive(ctx, [&] {
              Span call(h, kDsCall, ctx);
              tree.insert(ctx, key, key + 1);
            });
          } else if (dice < p.update_pct) {
            r = cs.run_exclusive(ctx, [&] {
              Span call(h, kDsCall, ctx);
              tree.erase(ctx, key);
            });
          } else if (read_dice < p.scan_pct) {
            r = cs.run(ctx, [&] {
              Span call(h, kDsCall, ctx);
              std::uint64_t sum;
              tree.range_sum(ctx, key, p.scan_len, &sum);
            });
          } else {
            r = cs.run(ctx, [&] {
              Span call(h, kDsCall, ctx);
              std::uint64_t v;
              tree.lookup(ctx, key, &v);
            });
          }
        }
        latency.add(st.now() - begin);
        h.end_op(ctx);
        return r;
      });
  h.finish();
  std::string why;
  if (!tree.unsafe_validate(&why)) why = "tree invalid: " + why;
  return collect(stats, h, latency, digest_keys(tree.unsafe_keys()), why);
}

RepResult rep(const service::KvPoint& p, RepHooks& h) {
  using service::KvPair;
  using service::ShardedKv;
  ShardedKv::Config kc;
  kc.shards = p.shards;
  kc.keys = p.keys;
  kc.threads = p.threads;
  kc.policy = p.policy;
  ShardedKv kv(kc);
  support::Xoshiro256 fill(p.seed);
  std::size_t filled = 0;
  while (filled < p.keys / 2) {
    if (kv.unsafe_put(fill.next_below(p.keys), 100)) ++filled;
  }
  kv.unsafe_distribute_free_lists(p.threads);

  const BenchConfig cfg = config_of(p);
  const double mean_cycles =
      cfg.machine.ghz * 1e9 * static_cast<double>(p.threads) /
      (static_cast<double>(p.clients) * p.client_rate_hz);
  const service::ZipfGenerator zipf(p.keys, p.zipf_theta);
  const int batch = std::clamp(p.multi_put_keys, 1, ShardedKv::kMaxOpShards);
  struct Worker {
    service::OpenLoopClock clock;
    std::array<QuantileHistogram, service::kKvOpKinds> lat;
  };
  std::vector<Worker> workers(static_cast<std::size_t>(p.threads));

  RunStats stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
    Span op(h, kHarnessOp, ctx);
    auto& st = ctx.thread();
    auto& rng = st.rng();
    auto& w = workers[static_cast<std::size_t>(ctx.id())];
    std::uint64_t arrival;
    {
      Span traffic(h, kServiceTraffic, ctx);
      if (!w.clock.primed()) w.clock.prime(rng, st.now(), mean_cycles);
      arrival = w.clock.pop(rng, mean_cycles);
    }
    // Open loop: idle until the request is due; a late start counts as
    // queueing delay in the latency.
    if (st.now() < arrival) st.tick(arrival - st.now());
    const auto dice = static_cast<int>(rng.next_below(100));
    const auto draw_key = [&] {
      Span traffic(h, kServiceTraffic, ctx);
      return zipf.next(rng);
    };
    locks::RegionResult r;
    int kind;
    if (dice < p.put_pct) {
      kind = 1;
      const std::uint64_t key = draw_key();
      const std::uint64_t value = 1 + rng.next_below(1000);
      Span request(h, kServiceRequest, ctx);
      r = kv.put(ctx, key, value);
    } else if (dice < p.put_pct + p.multi_put_pct) {
      kind = 2;
      KvPair pairs[ShardedKv::kMaxOpShards];
      for (int i = 0; i < batch; ++i) {
        pairs[i].key = draw_key();
        pairs[i].value = 1 + rng.next_below(1000);
      }
      Span request(h, kServiceRequest, ctx);
      r = kv.multi_put(ctx, pairs, batch);
    } else if (dice < p.put_pct + p.multi_put_pct + p.transfer_pct) {
      kind = 3;
      const std::uint64_t from = draw_key();
      const std::uint64_t to = draw_key();
      const std::uint64_t amount = 1 + rng.next_below(50);
      Span request(h, kServiceRequest, ctx);
      r = kv.transfer(ctx, from, to, amount);
    } else {
      kind = 0;
      const std::uint64_t key = draw_key();
      std::uint64_t v = 0;
      Span request(h, kServiceRequest, ctx);
      r = kv.get(ctx, key, &v);
    }
    w.lat[static_cast<std::size_t>(kind)].add(st.now() - arrival);
    h.end_op(ctx);
    return r;
  });
  QuantileHistogram all;
  for (int k = 0; k < service::kKvOpKinds; ++k) {
    auto* series = stats.latency_series(service::kKvOpNames[k]);
    for (const auto& w : workers) {
      series->merge(w.lat[static_cast<std::size_t>(k)]);
    }
    all.merge(*series);
  }
  h.finish();
  std::string why;
  if (!kv.unsafe_validate(&why)) why = "kv invalid: " + why;
  Digest state;
  for (int s = 0; s < kv.n_shards(); ++s) state.add(kv.unsafe_shard_size(s));
  state.add(kv.unsafe_total_value());
  return collect(stats, h, all, state.value(), why);
}

RunStats run_point_once(const harness::RbPoint& p) {
  return harness::run_rb_point_once(p);
}
RunStats run_point_once(const harness::BtPoint& p) {
  return harness::run_bt_point_once(p);
}
RunStats run_point_once(const service::KvPoint& p) {
  return service::run_kv_point_once(p);
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> v = make_workloads();
  return v;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

RepResult run_rep(const Workload& w, std::uint64_t seed, Tracer* tracer) {
  RepHooks h;
  h.tracer = tracer;
  h.begin();
  return with_point(w, seed, [&h](const auto& p) { return rep(p, h); });
}

std::uint64_t entry_point_digest(const Workload& w, std::uint64_t seed) {
  return with_point(w, seed, [](const auto& p) {
    return digest_stats(run_point_once(p));
  });
}

double switch_probe_ns(const Workload& w, std::uint64_t seed) {
  const BenchConfig cfg =
      with_point(w, seed, [](const auto& p) { return config_of(p); });
  // A tick one cycle past the yield slack always crosses the preemption
  // bound, so every tick is one context switch.
  const std::uint64_t step = cfg.machine.yield_slack_cycles + 1;
  const std::uint64_t ticks_per_thread =
      200000 / static_cast<std::uint64_t>(cfg.threads) + 1;
  sim::Scheduler sched(cfg.machine);
  for (int t = 0; t < cfg.threads; ++t) {
    sched.spawn([step](sim::SimThread& st) {
      while (!st.stop_requested()) st.tick(step);
    });
  }
  const auto t0 = Clock::now();
  sched.run_for(ticks_per_thread * step);
  const double ns = ms_between(t0, Clock::now()) * 1e6;
  return ns / static_cast<double>(std::max<std::uint64_t>(
                  1, sched.switch_count()));
}

}  // namespace elision::e2e

#include "service/kv_workload.hpp"

#include <array>

#include "service/sharded_kv.hpp"
#include "service/traffic.hpp"
#include "support/rng.hpp"

namespace elision::service {

using harness::BenchConfig;
using harness::QuantileHistogram;
using harness::RunStats;

RunStats run_kv_point_once(const KvPoint& p) {
  ShardedKv::Config kc;
  kc.shards = p.shards;
  kc.keys = p.keys;
  kc.threads = p.threads;
  kc.policy = p.policy;
  ShardedKv kv(kc);

  // Prefill half the domain with a fixed stake per key, so gets mostly hit
  // and transfers have value to move.
  support::Xoshiro256 fill(p.seed);
  const std::size_t target = p.keys / 2;
  std::size_t filled = 0;
  while (filled < target) {
    if (kv.unsafe_put(fill.next_below(p.keys), 100)) ++filled;
  }
  kv.unsafe_distribute_free_lists(p.threads);

  BenchConfig cfg;
  cfg.threads = p.threads;
  cfg.duration_sec = p.duration_sec;
  cfg.duration_scale = harness::env_duration_scale();
  cfg.machine.seed = p.seed;
  cfg.timeline_slot_cycles = p.timeline_slot_cycles;
  cfg.policy = p.policy;
  cfg.telemetry = p.telemetry;
  cfg.avalanche = p.avalanche;

  // Per-worker aggregate interarrival mean: total offered rate
  // clients * client_rate_hz, split evenly over the workers.
  const double cycles_per_sec = cfg.machine.ghz * 1e9;
  const double mean_cycles =
      cycles_per_sec * static_cast<double>(p.threads) /
      (static_cast<double>(p.clients) * p.client_rate_hz);

  const ZipfGenerator zipf(p.keys, p.zipf_theta);
  int batch = p.multi_put_keys;
  if (batch < 1) batch = 1;
  if (batch > ShardedKv::kMaxOpShards) batch = ShardedKv::kMaxOpShards;

  struct Worker {
    OpenLoopClock clock;
    std::array<QuantileHistogram, kKvOpKinds> lat;
    std::vector<std::uint64_t> shard_reqs;
  };
  std::vector<Worker> workers(static_cast<std::size_t>(p.threads));
  for (auto& w : workers) {
    w.shard_reqs.resize(static_cast<std::size_t>(p.shards), 0);
  }

  auto stats = harness::run_workload(cfg, [&](tsx::Ctx& ctx) {
    auto& st = ctx.thread();
    auto& rng = st.rng();
    auto& w = workers[static_cast<std::size_t>(ctx.id())];
    if (!w.clock.primed()) w.clock.prime(rng, st.now(), mean_cycles);
    const std::uint64_t arrival = w.clock.pop(rng, mean_cycles);
    // Open loop: idle until the request is due; if we are already past it,
    // the wait shows up as queueing delay in the latency below.
    if (st.now() < arrival) st.tick(arrival - st.now());

    const auto dice = static_cast<int>(rng.next_below(100));
    locks::RegionResult r;
    int kind;
    if (dice < p.put_pct) {
      kind = 1;
      const std::uint64_t key = zipf.next(rng);
      r = kv.put(ctx, key, 1 + rng.next_below(1000));
      ++w.shard_reqs[static_cast<std::size_t>(kv.shard_of(key))];
    } else if (dice < p.put_pct + p.multi_put_pct) {
      kind = 2;
      KvPair pairs[ShardedKv::kMaxOpShards];
      for (int i = 0; i < batch; ++i) {
        pairs[i] = {zipf.next(rng), 1 + rng.next_below(1000)};
      }
      r = kv.multi_put(ctx, pairs, batch);
      for (int i = 0; i < batch; ++i) {
        ++w.shard_reqs[static_cast<std::size_t>(kv.shard_of(pairs[i].key))];
      }
    } else if (dice < p.put_pct + p.multi_put_pct + p.transfer_pct) {
      kind = 3;
      const std::uint64_t from = zipf.next(rng);
      const std::uint64_t to = zipf.next(rng);
      r = kv.transfer(ctx, from, to, 1 + rng.next_below(50));
      ++w.shard_reqs[static_cast<std::size_t>(kv.shard_of(from))];
      ++w.shard_reqs[static_cast<std::size_t>(kv.shard_of(to))];
    } else {
      kind = 0;
      const std::uint64_t key = zipf.next(rng);
      std::uint64_t v = 0;
      r = kv.get(ctx, key, &v);
      ++w.shard_reqs[static_cast<std::size_t>(kv.shard_of(key))];
    }
    w.lat[static_cast<std::size_t>(kind)].add(st.now() - arrival);
    return r;
  });

  // Merge per-worker series in thread order; register every op kind even
  // when empty so the JSON schema is stable.
  for (int k = 0; k < kKvOpKinds; ++k) {
    auto* series = stats.latency_series(kKvOpNames[k]);
    for (const auto& w : workers) series->merge(w.lat[static_cast<std::size_t>(k)]);
  }
  if (p.shard_requests != nullptr) {
    p.shard_requests->assign(static_cast<std::size_t>(p.shards), 0);
    for (const auto& w : workers) {
      for (int s = 0; s < p.shards; ++s) {
        (*p.shard_requests)[static_cast<std::size_t>(s)] +=
            w.shard_reqs[static_cast<std::size_t>(s)];
      }
    }
  }
  return stats;
}

RunStats run_kv_point(const KvPoint& p) {
  std::vector<std::vector<std::uint64_t>> shard_reqs(
      static_cast<std::size_t>(p.seeds > 0 ? p.seeds : 1));
  RunStats total = harness::run_seeds(
      p.seeds, p.seed, p.host_threads, [&](std::size_t s, std::uint64_t seed) {
        KvPoint q = p;
        q.host_threads = 1;
        q.seed = seed;
        q.shard_requests =
            p.shard_requests != nullptr ? &shard_reqs[s] : nullptr;
        return run_kv_point_once(q);
      });
  if (p.shard_requests != nullptr) {
    p.shard_requests->assign(static_cast<std::size_t>(p.shards), 0);
    for (const auto& reqs : shard_reqs) {
      for (int i = 0; i < p.shards; ++i) {
        (*p.shard_requests)[static_cast<std::size_t>(i)] +=
            reqs[static_cast<std::size_t>(i)];
      }
    }
  }
  return total;
}

}  // namespace elision::service

// Sharded KV service tests: routing and per-shard bookkeeping, single- and
// cross-shard operation semantics, cross-shard atomicity under schedule
// perturbation, and byte-identical multi-seed benchmark fan-out across
// host-thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "locks/ttas_lock.hpp"
#include "service/kv_workload.hpp"
#include "service/sharded_kv.hpp"
#include "service/traffic.hpp"
#include "stress/stress.hpp"
#include "support/rng.hpp"

namespace elision::service {
namespace {

sim::MachineConfig quiet_machine() {
  sim::MachineConfig m;
  m.n_cores = 8;
  m.smt_per_core = 1;
  return m;
}

tsx::TsxConfig quiet_tsx() {
  tsx::TsxConfig t;
  t.spurious_per_begin = 0;
  t.spurious_per_access = 0;
  return t;
}

void run_single(const std::function<void(tsx::Ctx&)>& body) {
  sim::Scheduler sched(quiet_machine());
  tsx::Engine eng(sched, quiet_tsx());
  sched.spawn([&](sim::SimThread& st) { body(eng.context(st)); });
  sched.run();
}

TEST(ShardedKv, RoutingIsDeterministicAndInRange) {
  ShardedKv::Config cfg;
  cfg.shards = 8;
  cfg.keys = 1024;
  ShardedKv kv(cfg);
  std::vector<std::uint64_t> per_shard(8, 0);
  for (std::uint64_t k = 0; k < 1024; ++k) {
    const int s = kv.shard_of(k);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 8);
    EXPECT_EQ(s, kv.shard_of(k));  // stable
    ++per_shard[static_cast<std::size_t>(s)];
  }
  // The splitmix-style mix must spread a dense key range: no shard empty,
  // none holding more than half the domain.
  for (const std::uint64_t n : per_shard) {
    EXPECT_GT(n, 0u);
    EXPECT_LT(n, 512u);
  }
}

TEST(ShardedKv, UnsafePrefillRoutesAndValidates) {
  ShardedKv::Config cfg;
  cfg.shards = 4;
  cfg.keys = 256;
  cfg.track_totals = true;
  ShardedKv kv(cfg);
  std::uint64_t total = 0;
  for (std::uint64_t k = 0; k < 256; k += 2) {
    EXPECT_TRUE(kv.unsafe_put(k, k + 3));
    total += k + 3;
  }
  EXPECT_EQ(kv.unsafe_size(), 128u);
  EXPECT_EQ(kv.unsafe_total_value(), total);
  std::size_t across = 0;
  for (int s = 0; s < kv.n_shards(); ++s) across += kv.unsafe_shard_size(s);
  EXPECT_EQ(across, 128u);
  std::string why;
  EXPECT_TRUE(kv.unsafe_validate(&why)) << why;
}

TEST(ShardedKv, PutGetEraseReportCommittedOutParams) {
  ShardedKv::Config cfg;
  cfg.shards = 4;
  cfg.keys = 64;
  cfg.threads = 1;
  ShardedKv kv(cfg);
  run_single([&](tsx::Ctx& ctx) {
    bool inserted = false;
    std::uint64_t old = 99;
    kv.put(ctx, 7, 100, &inserted, &old);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(old, 0u);
    kv.put(ctx, 7, 250, &inserted, &old);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(old, 100u);
    std::uint64_t v = 0;
    bool found = false;
    kv.get(ctx, 7, &v, &found);
    EXPECT_TRUE(found);
    EXPECT_EQ(v, 250u);
    bool erased = false;
    kv.erase(ctx, 7, &erased, &old);
    EXPECT_TRUE(erased);
    EXPECT_EQ(old, 250u);
    kv.erase(ctx, 7, &erased, &old);
    EXPECT_FALSE(erased);
    kv.get(ctx, 7, &v, &found);
    EXPECT_FALSE(found);
  });
  EXPECT_EQ(kv.unsafe_size(), 0u);
  std::string why;
  EXPECT_TRUE(kv.unsafe_validate(&why)) << why;
}

TEST(ShardedKv, MultiPutIsAtomicAcrossShardsAndReportsDelta) {
  ShardedKv::Config cfg;
  cfg.shards = 4;
  cfg.keys = 64;
  cfg.threads = 1;
  ShardedKv kv(cfg);
  run_single([&](tsx::Ctx& ctx) {
    const KvPair pairs[] = {{1, 10}, {2, 20}, {3, 30}};
    std::int64_t delta = 0;
    kv.multi_put(ctx, pairs, 3, &delta);
    EXPECT_EQ(delta, 60);
    // Overwrite one, add one; delta is the net change.
    const KvPair next[] = {{2, 5}, {4, 40}};
    kv.multi_put(ctx, next, 2, &delta);
    EXPECT_EQ(delta, 40 - 20 + 5);
    // Later duplicates of a key win, like sequential puts.
    const KvPair dup[] = {{9, 1}, {9, 7}};
    kv.multi_put(ctx, dup, 2, &delta);
    std::uint64_t v = 0;
    kv.get(ctx, 9, &v);
    EXPECT_EQ(v, 7u);
  });
  EXPECT_EQ(kv.unsafe_size(), 5u);
  EXPECT_EQ(kv.unsafe_total_value(), 10u + 5u + 30u + 40u + 7u);
}

TEST(ShardedKv, TransferConservesTotalValue) {
  ShardedKv::Config cfg;
  cfg.shards = 4;
  cfg.keys = 64;
  cfg.threads = 1;
  cfg.track_totals = true;
  ShardedKv kv(cfg);
  kv.unsafe_put(1, 100);
  run_single([&](tsx::Ctx& ctx) {
    std::uint64_t moved = 0;
    kv.transfer(ctx, 1, 2, 30, &moved);  // partial move, inserts key 2
    EXPECT_EQ(moved, 30u);
    kv.transfer(ctx, 1, 2, 1000, &moved);  // clamped to the balance
    EXPECT_EQ(moved, 70u);
    kv.transfer(ctx, 42, 2, 5, &moved);  // absent source: no-op
    EXPECT_EQ(moved, 0u);
    kv.transfer(ctx, 2, 2, 5, &moved);  // self-transfer: no-op
    EXPECT_EQ(moved, 0u);
  });
  EXPECT_EQ(kv.unsafe_total_value(), 100u);
  std::string why;
  EXPECT_TRUE(kv.unsafe_validate(&why)) << why;
}

// Concurrent mixed traffic with an exact host-side ledger: every committed
// op reports its net value change via out-params, and the final stored sum
// must match. A torn cross-shard region (multi_put or transfer committing
// on some involved shards but not others) is exactly a ledger mismatch.
TEST(ShardedKv, ConcurrentMixKeepsLedgerExact) {
  for (const auto& policy :
       {locks::ElisionPolicy::standard(), locks::ElisionPolicy::hle(),
        locks::ElisionPolicy::hle_scm()}) {
    ShardedKv::Config cfg;
    cfg.shards = 4;
    cfg.keys = 48;
    cfg.threads = 6;
    cfg.policy = policy;
    cfg.track_totals = true;
    ShardedKv kv(cfg);
    std::int64_t ledger = 0;
    for (std::uint64_t k = 0; k < 48; k += 2) {
      kv.unsafe_put(k, k + 5);
      ledger += static_cast<std::int64_t>(k + 5);
    }
    kv.unsafe_distribute_free_lists(6);

    sim::MachineConfig m = quiet_machine();
    m.seed = 77;
    sim::Scheduler sched(m);
    tsx::Engine eng(sched, tsx::TsxConfig{});
    std::vector<std::int64_t> deltas(6, 0);
    for (int t = 0; t < 6; ++t) {
      sched.spawn([&, t](sim::SimThread& st) {
        tsx::Ctx& ctx = eng.context(st);
        support::Xoshiro256 rng(0xC0FFEE + static_cast<std::uint64_t>(t));
        std::int64_t local = 0;
        for (int i = 0; i < 300; ++i) {
          const std::uint64_t key = rng.next_below(48);
          const std::uint64_t dice = rng.next_below(10);
          if (dice < 3) {
            std::uint64_t old = 0;
            const std::uint64_t value = 1 + rng.next_below(100);
            kv.put(ctx, key, value, nullptr, &old);
            local += static_cast<std::int64_t>(value) -
                     static_cast<std::int64_t>(old);
          } else if (dice < 5) {
            KvPair pairs[3];
            for (auto& p : pairs) {
              p.key = rng.next_below(48);
              p.value = 1 + rng.next_below(100);
            }
            std::int64_t d = 0;
            kv.multi_put(ctx, pairs, 3, &d);
            local += d;
          } else if (dice < 8) {
            kv.transfer(ctx, key, rng.next_below(48), 1 + rng.next_below(50));
          } else {
            std::uint64_t v = 0;
            kv.get(ctx, key, &v);
          }
        }
        deltas[static_cast<std::size_t>(t)] = local;
      });
    }
    sched.run();
    for (const std::int64_t d : deltas) ledger += d;
    std::string why;
    ASSERT_TRUE(kv.unsafe_validate(&why)) << policy.name() << ": " << why;
    EXPECT_EQ(static_cast<std::int64_t>(kv.unsafe_total_value()), ledger)
        << policy.name();
  }
}

// Cross-shard atomicity must survive schedule perturbation: drive the
// stress harness's sharded-kv workload (ledger + per-shard audits) across
// several perturbation seeds on the speculative policies.
TEST(ShardedKv, StressPerturbationFindsNoTornCrossShardUpdates) {
  stress::StressOptions o;
  o.threads = 6;
  o.duration_ms = 0.03;
  for (const auto& policy :
       {locks::ElisionPolicy::hle(), locks::ElisionPolicy::hle_scm()}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      stress::StressCase c;
      c.policy = policy;
      c.lock = locks::LockId::kTtas;
      c.workload = stress::Workload::kShardedKv;
      c.perturb_seed = seed;
      const stress::RunOutcome out = stress::run_case(o, c);
      EXPECT_TRUE(out.ok())
          << policy.name() << " seed " << seed << ": "
          << (out.violations.empty() ? "" : out.violations.front());
      EXPECT_GT(out.ops, 0u);
    }
  }
}

TEST(Traffic, ZipfSamplesStayInDomainAndSkew) {
  ZipfGenerator zipf(1000, 0.99);
  support::Xoshiro256 rng(123);
  std::vector<std::uint64_t> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = zipf.next(rng);
    ASSERT_LT(k, 1000u);
    ++counts[static_cast<std::size_t>(k)];
  }
  // Rank-0 must dominate the median rank by a wide margin under theta=0.99.
  EXPECT_GT(counts[0], 50 * (counts[500] + 1));
}

TEST(KvWorkload, PointRunsAndRecordsLatencyPerOpKind) {
  KvPoint p;
  p.shards = 8;
  p.keys = 2048;
  p.clients = 500;
  p.threads = 4;
  p.duration_sec = 0.0005;
  const harness::RunStats s = run_kv_point_once(p);
  EXPECT_GT(s.ops, 0u);
  ASSERT_EQ(s.op_latency.size(), static_cast<std::size_t>(kKvOpKinds));
  std::uint64_t lat_samples = 0;
  for (int i = 0; i < kKvOpKinds; ++i) {
    EXPECT_EQ(s.op_latency[static_cast<std::size_t>(i)].op, kKvOpNames[i]);
    const auto& h = s.op_latency[static_cast<std::size_t>(i)].hist;
    lat_samples += h.samples();
    EXPECT_LE(h.quantile(0.50), h.quantile(0.99));
    EXPECT_LE(h.quantile(0.99), h.quantile(0.999));
    EXPECT_LE(h.quantile(0.999), h.max());
  }
  // Every completed request recorded exactly one latency sample.
  EXPECT_EQ(lat_samples, s.ops);
  // shard_requests counts per-shard touches: gets and puts one each,
  // multi_puts one per key in the batch, transfers two.
  ASSERT_EQ(s.shard_requests.size(), 8u);
  std::uint64_t routed = 0;
  for (const std::uint64_t n : s.shard_requests) routed += n;
  const std::uint64_t expected =
      s.op_latency[0].hist.samples() + s.op_latency[1].hist.samples() +
      4 * s.op_latency[2].hist.samples() + 2 * s.op_latency[3].hist.samples();
  EXPECT_EQ(routed, expected);
}

}  // namespace
}  // namespace elision::service

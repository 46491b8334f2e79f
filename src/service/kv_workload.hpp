// Benchmark driver for the sharded KV service: Zipf-skewed open-loop
// traffic against ShardedKv, measuring virtual-time request latency
// (arrival -> completion, so queueing delay counts) per op kind alongside
// the usual throughput/speculation metrics.
#pragma once

#include <cstdint>

#include "harness/runner.hpp"
#include "locks/policy.hpp"

namespace elision::service {

struct KvPoint {
  int shards = 8;
  std::size_t keys = 8192;  // key domain [0, keys), half prefilled

  // Open-loop offered load: `clients` independent Poisson request streams
  // of `client_rate_hz` requests per virtual second each, partitioned over
  // `threads` workers (superposed per worker, so client count only scales
  // the rate — see service/traffic.hpp).
  int clients = 2000;
  double client_rate_hz = 1000.0;
  double zipf_theta = 0.99;  // key-popularity skew (YCSB default)

  // Op mix, percent: put / multi_put / transfer, remainder point gets.
  int put_pct = 20;
  int multi_put_pct = 5;
  int transfer_pct = 5;
  int multi_put_keys = 4;  // keys per multi_put (<= ShardedKv::kMaxOpShards)

  int threads = 8;
  locks::ElisionPolicy policy = locks::ElisionPolicy::hle();
  double duration_sec = 0.003;
  bool telemetry = false;
  tsx::AvalancheConfig avalanche;
  int seeds = 2;
  std::uint64_t timeline_slot_cycles = 0;
  std::uint64_t seed = 42;
};

// Latency series names registered (in this order) in RunStats::op_latency.
inline constexpr const char* kKvOpNames[] = {"get", "put", "multi_put",
                                             "transfer"};
inline constexpr int kKvOpKinds = 4;

// Builds and prefills the service, then drives it for the configured
// virtual duration, once, counting requests per shard into
// RunStats::shard_requests; run_point (harness/suite.hpp) merges `p.seeds`
// such runs.
harness::RunStats run_kv_point_once(const KvPoint& p);

}  // namespace elision::service

#include "harness/metrics.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/json.hpp"

namespace elision::harness {

std::string Histogram::bucket_label(std::size_t i) {
  if (i < 2) return std::to_string(i);
  return std::to_string(bucket_lo(i)) + "-" + std::to_string(bucket_hi(i));
}

void RunStats::accumulate(const RunStats& o) {
  if (elapsed_cycles == 0 && ops == 0) {
    ghz = o.ghz;
  } else {
    ELISION_CHECK_MSG(ghz == o.ghz,
                      "accumulated runs with different MachineConfig::ghz");
  }
  ops += o.ops;
  spec_ops += o.spec_ops;
  nonspec_ops += o.nonspec_ops;
  attempts += o.attempts;
  elapsed_cycles += o.elapsed_cycles;
  perturb_points += o.perturb_points;
  tx += o.tx;
  fp_bound_recomputes += o.fp_bound_recomputes;
  if (timeline.size() < o.timeline.size()) timeline.resize(o.timeline.size());
  for (std::size_t s = 0; s < o.timeline.size(); ++s) {
    timeline[s].ops += o.timeline[s].ops;
    timeline[s].nonspec_ops += o.timeline[s].nonspec_ops;
  }
  arrivals += o.arrivals;
  arrivals_lock_held += o.arrivals_lock_held;
  if (shard_requests.size() < o.shard_requests.size()) {
    shard_requests.resize(o.shard_requests.size());
  }
  for (std::size_t s = 0; s < o.shard_requests.size(); ++s) {
    shard_requests[s] += o.shard_requests[s];
  }
  attempts_hist.merge(o.attempts_hist);
  rejoin_hist.merge(o.rejoin_hist);
  episodes.insert(episodes.end(), o.episodes.begin(), o.episodes.end());
  telemetry_events += o.telemetry_events;
  telemetry_dropped += o.telemetry_dropped;
  for (const auto& ol : o.op_latency) {
    latency_series(ol.op)->merge(ol.hist);
  }
}

QuantileHistogram* RunStats::latency_series(const std::string& op) {
  for (auto& ol : op_latency) {
    if (ol.op == op) return &ol.hist;
  }
  op_latency.push_back({op, {}});
  return &op_latency.back().hist;
}

void MetricsRegistry::record(const std::string& scheme,
                             const std::string& lock, const RunStats& run) {
  Entry* series = nullptr;
  for (auto& e : entries_) {
    if (e.scheme == scheme && e.lock == lock) series = &e;
  }
  if (series == nullptr) {
    series = &entries_.emplace_back(Entry{scheme, lock, 0, {}});
  }
  ++series->runs;
  series->stats.accumulate(run);
}

namespace {

// A series' avalanche episodes, summed.
struct AvalancheSummary {
  std::uint64_t episodes = 0;
  std::uint64_t victims = 0;
  std::uint64_t cycles = 0;  // summed serialized duration
  int max_victims = 0;

  explicit AvalancheSummary(const RunStats& s) : episodes(s.episodes.size()) {
    for (const auto& ep : s.episodes) {
      victims += static_cast<std::uint64_t>(ep.victim_count());
      cycles += ep.duration();
      max_victims = std::max(max_victims, ep.victim_count());
    }
  }
};

void json_hist(std::FILE* out, const Histogram& h) {
  std::fprintf(out,
               "{\"samples\":%llu,\"mean\":%.3f,\"max\":%llu,\"buckets\":{",
               static_cast<unsigned long long>(h.samples()), h.mean(),
               static_cast<unsigned long long>(h.max()));
  bool first = true;
  for (std::size_t i = 0; i < h.buckets().size(); ++i) {
    if (h.buckets()[i] == 0) continue;
    std::fprintf(out, "%s\"%s\":%llu", first ? "" : ",",
                 Histogram::bucket_label(i).c_str(),
                 static_cast<unsigned long long>(h.buckets()[i]));
    first = false;
  }
  std::fprintf(out, "}}");
}

}  // namespace

void MetricsRegistry::export_json(std::FILE* out) const {
  std::fprintf(out, "{\"series\":[");
  for (std::size_t n = 0; n < entries_.size(); ++n) {
    const auto& e = entries_[n];
    const RunStats& m = e.stats;
    const AvalancheSummary av(m);
    std::fprintf(out, "%s{\"scheme\":\"%s\",\"lock\":\"%s\",\"runs\":%llu,",
                 n == 0 ? "" : ",", support::json::escape(e.scheme).c_str(),
                 support::json::escape(e.lock).c_str(),
                 static_cast<unsigned long long>(e.runs));
    std::fprintf(
        out,
        "\"ops\":%llu,\"spec_ops\":%llu,\"nonspec_ops\":%llu,"
        "\"attempts\":%llu,\"elapsed_cycles\":%llu,"
        "\"throughput_ops_per_sec\":%.1f,",
        static_cast<unsigned long long>(m.ops),
        static_cast<unsigned long long>(m.spec_ops),
        static_cast<unsigned long long>(m.nonspec_ops),
        static_cast<unsigned long long>(m.attempts),
        static_cast<unsigned long long>(m.elapsed_cycles), m.throughput());
    std::fprintf(out, "\"tx\":{\"begins\":%llu,\"commits\":%llu,"
                      "\"aborts\":%llu},",
                 static_cast<unsigned long long>(m.tx.begins),
                 static_cast<unsigned long long>(m.tx.commits),
                 static_cast<unsigned long long>(m.tx.aborts));
    std::fprintf(out, "\"aborts_by_cause\":{");
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(tsx::AbortCause::kCauseCount); ++c) {
      std::fprintf(out, "%s\"%s\":%llu", c == 0 ? "" : ",",
                   tsx::to_string(static_cast<tsx::AbortCause>(c)),
                   static_cast<unsigned long long>(m.tx.aborts_by_cause[c]));
    }
    std::fprintf(out, "},\"attempts_hist\":");
    json_hist(out, m.attempts_hist);
    std::fprintf(out, ",\"rejoin_cycles_hist\":");
    json_hist(out, m.rejoin_hist);
    std::fprintf(out,
                 ",\"avalanche\":{\"episodes\":%llu,\"victims\":%llu,"
                 "\"max_victims\":%d,\"serialized_cycles\":%llu}}",
                 static_cast<unsigned long long>(av.episodes),
                 static_cast<unsigned long long>(av.victims), av.max_victims,
                 static_cast<unsigned long long>(av.cycles));
  }
  std::fprintf(out, "]}\n");
}

void MetricsRegistry::export_csv(std::FILE* out) const {
  std::fprintf(out,
               "scheme,lock,runs,ops,spec_ops,nonspec_ops,attempts,"
               "elapsed_cycles,throughput_ops_per_sec,tx_begins,tx_commits,"
               "tx_aborts");
  for (std::size_t c = 0;
       c < static_cast<std::size_t>(tsx::AbortCause::kCauseCount); ++c) {
    std::fprintf(out, ",aborts_%s",
                 tsx::to_string(static_cast<tsx::AbortCause>(c)));
  }
  std::fprintf(out,
               ",attempts_mean,attempts_max,rejoin_cycles_mean,"
               "rejoin_cycles_max,avalanche_episodes,avalanche_victims,"
               "avalanche_max_victims,avalanche_serialized_cycles\n");
  for (const auto& e : entries_) {
    const RunStats& m = e.stats;
    const AvalancheSummary av(m);
    std::fprintf(out, "%s,%s,%llu,%llu,%llu,%llu,%llu,%llu,%.1f,%llu,%llu,"
                      "%llu",
                 e.scheme.c_str(), e.lock.c_str(),
                 static_cast<unsigned long long>(e.runs),
                 static_cast<unsigned long long>(m.ops),
                 static_cast<unsigned long long>(m.spec_ops),
                 static_cast<unsigned long long>(m.nonspec_ops),
                 static_cast<unsigned long long>(m.attempts),
                 static_cast<unsigned long long>(m.elapsed_cycles),
                 m.throughput(),
                 static_cast<unsigned long long>(m.tx.begins),
                 static_cast<unsigned long long>(m.tx.commits),
                 static_cast<unsigned long long>(m.tx.aborts));
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(tsx::AbortCause::kCauseCount); ++c) {
      std::fprintf(out, ",%llu",
                   static_cast<unsigned long long>(m.tx.aborts_by_cause[c]));
    }
    std::fprintf(out, ",%.3f,%llu,%.3f,%llu,%llu,%llu,%d,%llu\n",
                 m.attempts_hist.mean(),
                 static_cast<unsigned long long>(m.attempts_hist.max()),
                 m.rejoin_hist.mean(),
                 static_cast<unsigned long long>(m.rejoin_hist.max()),
                 static_cast<unsigned long long>(av.episodes),
                 static_cast<unsigned long long>(av.victims), av.max_victims,
                 static_cast<unsigned long long>(av.cycles));
  }
}

}  // namespace elision::harness

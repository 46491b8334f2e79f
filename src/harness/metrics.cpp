#include "harness/metrics.hpp"

#include <algorithm>
#include <tuple>

#include "support/check.hpp"
#include "support/json.hpp"

namespace elision::harness {

std::string Histogram::bucket_label(std::size_t i) {
  if (i < 2) return std::to_string(i);
  return std::to_string(bucket_lo(i)) + "-" + std::to_string(bucket_hi(i));
}

namespace {

using Episodes = std::vector<tsx::AvalancheEpisode>;
using OpLatencies = std::vector<RunStats::OpLatency>;

QuantileHistogram& series(OpLatencies& all, const std::string& op) {
  for (auto& ol : all) {
    if (ol.op == op) return ol.hist;
  }
  return all.emplace_back(RunStats::OpLatency{op, {}}).hist;
}

// ---- merge rules: how two runs' values of a row merge and compare, and a
// change that makes one differ ----

struct Equal {
  static bool same(const auto& a, const auto& b) { return a == b; }
};

// Counters add.
struct Sum : Equal {
  static void merge(std::uint64_t& a, std::uint64_t b) { a += b; }
  static void change(std::uint64_t& a) { ++a; }
};

// Per-cause, per-slot and per-shard counts add index by index; a vector
// grows to the longer of the two.
struct IndexwiseSum : Equal {
  static void add(std::uint64_t& a, std::uint64_t b) { a += b; }
  static void add(SlotStats& a, const SlotStats& b) {
    a.ops += b.ops;
    a.nonspec_ops += b.nonspec_ops;
  }
  template <typename V>
  static void merge(V& a, const V& b) {
    if constexpr (requires { a.resize(0); }) {
      a.resize(std::max(a.size(), b.size()));
    }
    for (std::size_t i = 0; i < b.size(); ++i) add(a[i], b[i]);
  }
  template <typename V>
  static void change(V& a) {
    if constexpr (requires { a.resize(0); }) {
      a.resize(std::max<std::size_t>(a.size(), 1));
    }
    add(a[0], typename V::value_type{1});
  }
};

struct HistogramMerge : Equal {
  static void merge(Histogram& a, const Histogram& b) { a.merge(b); }
  static void change(Histogram& a) { a.add(1); }
};

// Avalanche episodes, in seed order. An episode's lock line is a host
// address, so two runs agree on an episode when all else matches.
struct Append {
  static void merge(Episodes& a, const Episodes& b) {
    a.insert(a.end(), b.begin(), b.end());
  }
  static bool same(const Episodes& a, const Episodes& b) {
    const auto key = [](const tsx::AvalancheEpisode& e) {
      return std::tie(e.trigger_thread, e.start, e.end, e.victims, e.aborts,
                      e.serialized_ops);
    };
    return std::ranges::equal(a, b, {}, key, key);
  }
  static void change(Episodes& a) { a.emplace_back().aborts = 1; }
};

// Latency series merge by op name, in first-seen order.
struct ByOpName : Equal {
  static void merge(OpLatencies& a, const OpLatencies& b) {
    for (const auto& ol : b) series(a, ol.op).merge(ol.hist);
  }
  static void change(OpLatencies& a) { series(a, "get").add(1); }
};

template <typename Rule, typename Get>
constexpr StatsRow row(const char* name, MetricTag tag, Get) {
  return {name, tag,
          [](RunStats& a, const RunStats& b) {
            Rule::merge(Get{}(a), Get{}(b));
          },
          [](const RunStats& a, const RunStats& b) {
            return Rule::same(Get{}(a), Get{}(b));
          },
          [](RunStats& s) { Rule::change(Get{}(s)); }};
}

#define ELISION_ROW(Rule, member, tag) \
  row<Rule>(#member, MetricTag::tag,  \
            [](auto& s) -> auto& { return s.member; })

// Every RunStats member, once.
constexpr StatsRow kRows[] = {
    // ghz comes first: the first non-empty run sets it (so it reads ops and
    // elapsed_cycles before they merge), and every later run must match.
    {"ghz", MetricTag::kSimulated,
     [](RunStats& a, const RunStats& b) {
       const bool empty = a.elapsed_cycles == 0 && a.ops == 0;
       ELISION_CHECK_MSG(empty || a.ghz == b.ghz,
                         "accumulated runs with different MachineConfig::ghz");
       a.ghz = b.ghz;
     },
     [](const RunStats& a, const RunStats& b) { return a.ghz == b.ghz; },
     [](RunStats& s) { s.ghz += 1.0; }},
    ELISION_ROW(Sum, ops, kSimulated),
    ELISION_ROW(Sum, spec_ops, kSimulated),
    ELISION_ROW(Sum, nonspec_ops, kSimulated),
    ELISION_ROW(Sum, attempts, kSimulated),
    ELISION_ROW(Sum, elapsed_cycles, kSimulated),
    ELISION_ROW(Sum, perturb_points, kSimulated),
    ELISION_ROW(Sum, tx.begins, kSimulated),
    ELISION_ROW(Sum, tx.commits, kSimulated),
    ELISION_ROW(Sum, tx.aborts, kSimulated),
    ELISION_ROW(IndexwiseSum, tx.aborts_by_cause, kSimulated),
    // Line ids are host addresses, so the owned-line and slot-memo caches
    // hit by heap placement.
    ELISION_ROW(Sum, tx.fp_owned_hits, kHost),
    ELISION_ROW(Sum, tx.fp_probe_skips, kHost),
    ELISION_ROW(Sum, fp_bound_recomputes, kHost),
    ELISION_ROW(IndexwiseSum, timeline, kSimulated),
    ELISION_ROW(Sum, arrivals, kSimulated),
    ELISION_ROW(Sum, arrivals_lock_held, kSimulated),
    ELISION_ROW(IndexwiseSum, shard_requests, kSimulated),
    ELISION_ROW(HistogramMerge, attempts_hist, kSimulated),
    ELISION_ROW(HistogramMerge, rejoin_hist, kSimulated),
    ELISION_ROW(Append, episodes, kSimulated),
    ELISION_ROW(Sum, telemetry_events, kSimulated),
    ELISION_ROW(Sum, telemetry_dropped, kSimulated),
    ELISION_ROW(ByOpName, op_latency, kSimulated),
};

#undef ELISION_ROW

// An aggregate's member count: the most initializers T{...} accepts.
struct AnyMember {
  template <typename T>
  operator T() const;
};
template <typename T, typename... A>
constexpr std::size_t member_count() {
  if constexpr (requires { T{A{}..., AnyMember{}}; }) {
    return member_count<T, A..., AnyMember>();
  }
  return sizeof...(A);
}

// A member added to RunStats or TxStats needs a row above (TxStats'
// operator+= sums contexts inside the engine), and one added to
// AvalancheEpisode a key in Append::same, which leaves out only the line.
static_assert(member_count<RunStats>() - 1 + member_count<tsx::TxStats>() ==
              std::size(kRows));
static_assert(member_count<tsx::AvalancheEpisode>() == 7);

}  // namespace

std::span<const StatsRow> stats_rows() { return kRows; }

std::string simulated_diff(const RunStats& a, const RunStats& b) {
  for (const StatsRow& r : kRows) {
    if (r.tag == MetricTag::kSimulated && !r.same(a, b)) return r.name;
  }
  return "";
}

void RunStats::accumulate(const RunStats& o) {
  for (const StatsRow& r : kRows) r.merge(*this, o);
}

QuantileHistogram* RunStats::latency_series(const std::string& op) {
  return &series(op_latency, op);
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

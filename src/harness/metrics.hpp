// What a run measures (RunStats and its histograms) and the metrics
// registry that merges runs into per-(scheme, lock) benchmark series —
// attempts-per-region histograms, the abort-cause matrix, SCM time-to-rejoin
// histograms and avalanche-episode summaries — and exports them as JSON or
// CSV. This is the shared vocabulary benches and tests use to assert on
// *behaviour* (how critical sections completed) rather than throughput
// alone.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "tsx/stats.hpp"
#include "tsx/telemetry.hpp"

namespace elision::harness {

namespace detail {

// Counters fed per completed region can legitimately approach 2^64 on long
// simulated runs; a silent wrap would corrupt every derived mean. Debug
// builds treat overflow as a bug; release builds pin at UINT64_MAX.
inline std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  ELISION_DCHECK(s >= a);
  return s >= a ? s : UINT64_MAX;
}

}  // namespace detail

// Power-of-two-bucketed histogram. Bucket index is std::bit_width(v):
// bucket 0 holds {0}, bucket 1 holds {1}, bucket 2 holds {2,3}, bucket 3
// holds {4..7}, and so on. Cheap enough to update per completed region.
class Histogram {
 public:
  void add(std::uint64_t v) {
    const auto b = static_cast<std::size_t>(std::bit_width(v));
    if (buckets_.size() <= b) buckets_.resize(b + 1, 0);
    ++buckets_[b];
    ++samples_;
    sum_ = detail::saturating_add(sum_, v);
    if (v > max_) max_ = v;
  }

  void merge(const Histogram& o) {
    if (buckets_.size() < o.buckets_.size()) {
      buckets_.resize(o.buckets_.size(), 0);
    }
    for (std::size_t i = 0; i < o.buckets_.size(); ++i) {
      buckets_[i] += o.buckets_[i];
    }
    samples_ += o.samples_;
    sum_ = detail::saturating_add(sum_, o.sum_);
    if (o.max_ > max_) max_ = o.max_;
  }

  std::uint64_t samples() const { return samples_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return samples_ > 0 ? static_cast<double>(sum_) /
                              static_cast<double>(samples_)
                        : 0.0;
  }

  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  // Inclusive value range of bucket i: [lo, hi]. Bucket 64 (samples with
  // the top bit set, e.g. add(UINT64_MAX)) saturates at UINT64_MAX — the
  // unclamped shift by 64 would be UB.
  static std::uint64_t bucket_lo(std::size_t i) {
    if (i < 2) return i;
    if (i > 64) return UINT64_MAX;
    return std::uint64_t{1} << (i - 1);
  }
  static std::uint64_t bucket_hi(std::size_t i) {
    if (i < 2) return i;
    if (i >= 64) return UINT64_MAX;
    return (std::uint64_t{1} << i) - 1;
  }
  // "0", "1", "2-3", "4-7", ...
  static std::string bucket_label(std::size_t i);

  bool operator==(const Histogram&) const = default;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t samples_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

// Log-linear (HDR-style) histogram for latency quantiles. `Histogram`'s
// power-of-two buckets are far too coarse for p999 — one bucket spans a 2x
// range. Here values below 64 get an exact bucket each, and every octave
// above is split into 32 linear sub-buckets, bounding the relative error of
// any reported quantile at 1/32 (~3.1%) while staying a handful of KiB.
//
// All counters are integers and quantiles return a bucket's inclusive upper
// bound (a uint64), so merged results — and any JSON printed from them —
// are bit-reproducible regardless of merge grouping.
class QuantileHistogram {
 public:
  static constexpr std::size_t kExact = 64;    // buckets 0..63 hold v == i
  static constexpr std::size_t kSubBits = 5;   // 32 sub-buckets per octave
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;

  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kExact) return static_cast<std::size_t>(v);
    const auto b = static_cast<std::size_t>(std::bit_width(v));  // >= 7
    const auto sub = static_cast<std::size_t>(
        (v - (std::uint64_t{1} << (b - 1))) >> (b - 1 - kSubBits));
    return kExact + (b - 7) * kSub + sub;
  }

  // Inclusive value range [lo, hi] of bucket i.
  static std::uint64_t bucket_lo(std::size_t i) {
    if (i < kExact) return i;
    const std::size_t octave = (i - kExact) / kSub;
    const std::size_t sub = (i - kExact) % kSub;
    const std::uint64_t width = std::uint64_t{1} << (octave + 1);
    return (std::uint64_t{1} << (octave + 6)) + sub * width;
  }
  static std::uint64_t bucket_hi(std::size_t i) {
    if (i < kExact) return i;
    const std::size_t octave = (i - kExact) / kSub;
    return bucket_lo(i) + (std::uint64_t{1} << (octave + 1)) - 1;
  }

  void add(std::uint64_t v) {
    const std::size_t i = bucket_index(v);
    if (buckets_.size() <= i) buckets_.resize(i + 1, 0);
    ++buckets_[i];
    ++samples_;
    sum_ = detail::saturating_add(sum_, v);
    if (v > max_) max_ = v;
  }

  void merge(const QuantileHistogram& o) {
    if (buckets_.size() < o.buckets_.size()) {
      buckets_.resize(o.buckets_.size(), 0);
    }
    for (std::size_t i = 0; i < o.buckets_.size(); ++i) {
      buckets_[i] += o.buckets_[i];
    }
    samples_ += o.samples_;
    sum_ = detail::saturating_add(sum_, o.sum_);
    if (o.max_ > max_) max_ = o.max_;
  }

  // Value at quantile q in [0,1]: the inclusive upper bound of the bucket
  // holding the ceil(q * samples)-th smallest sample (rank clamped to
  // [1, samples]). Exact for values < 64; within 1/32 above. Returns 0 when
  // empty.
  std::uint64_t quantile(double q) const {
    if (samples_ == 0) return 0;
    double want = q * static_cast<double>(samples_);
    std::uint64_t rank = static_cast<std::uint64_t>(want);
    if (static_cast<double>(rank) < want) ++rank;  // ceil
    if (rank < 1) rank = 1;
    if (rank > samples_) rank = samples_;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank) return bucket_hi(i) < max_ ? bucket_hi(i) : max_;
    }
    return max_;
  }

  std::uint64_t samples() const { return samples_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return samples_ > 0 ? static_cast<double>(sum_) /
                              static_cast<double>(samples_)
                        : 0.0;
  }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  bool operator==(const QuantileHistogram&) const = default;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t samples_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

struct SlotStats {
  std::uint64_t ops = 0;
  std::uint64_t nonspec_ops = 0;
  bool operator==(const SlotStats&) const = default;
};

// What one run (or a merge of runs) measured: the paper's metrics S
// (speculative completions), N (non-speculative completions), total
// execution attempts (A + N + S) and throughput, plus every counter,
// histogram and per-slot timeline the workloads record. Each member is one
// row of stats_rows(), which says how it merges and whether it is simulated.
struct RunStats {
  std::uint64_t ops = 0;          // S + N
  std::uint64_t spec_ops = 0;     // S
  std::uint64_t nonspec_ops = 0;  // N
  std::uint64_t attempts = 0;     // A + N + S
  std::uint64_t elapsed_cycles = 0;
  // Delay injections performed by the scheduler's perturbation layer
  // (0 unless machine.perturb was configured; see src/stress).
  std::uint64_t perturb_points = 0;
  double ghz = 3.4;
  tsx::TxStats tx;  // engine-level transaction counters
  // Scheduler-side fast-path telemetry: how many times the cached
  // context-switch bound was recomputed (once per actual switch under
  // batching; 0 when machine.batch_switch_bound is off).
  std::uint64_t fp_bound_recomputes = 0;
  std::vector<SlotStats> timeline;

  // TTAS lock arrivals, and those that found the lock held (the boxed
  // series of Fig 3.1). Counted by keyed-set runs over a TTAS lock only.
  std::uint64_t arrivals = 0;
  std::uint64_t arrivals_lock_held = 0;
  // Completed requests routed to each shard (KV runs only). Under Zipf skew
  // the distribution is lopsided — the hot-shard signature.
  std::vector<std::uint64_t> shard_requests;

  // Always collected (host-side, one Histogram::add per completed region).
  Histogram attempts_hist;

  // Populated only when BenchConfig::telemetry was set.
  Histogram rejoin_hist;  // SCM aux-enter -> aux-exit, virtual cycles
  std::vector<tsx::AvalancheEpisode> episodes;
  std::uint64_t telemetry_events = 0;   // recorded into the rings
  std::uint64_t telemetry_dropped = 0;  // lost to ring wrap-around

  // Per-operation-kind virtual-time latency (request arrival -> completion),
  // recorded by workloads that model request latency (src/service). Entries
  // keep the workload's registration order; accumulate() merges by name.
  struct OpLatency {
    std::string op;
    QuantileHistogram hist;
    bool operator==(const OpLatency&) const = default;
  };
  std::vector<OpLatency> op_latency;
  QuantileHistogram* latency_series(const std::string& op);

  // Folds another run into this one, each member by its stats_rows() rule.
  void accumulate(const RunStats& o);

  double seconds() const { return elapsed_cycles / (ghz * 1e9); }
  double throughput() const {
    return seconds() > 0 ? static_cast<double>(ops) / seconds() : 0.0;
  }
  double attempts_per_op() const {
    return ops > 0 ? static_cast<double>(attempts) / static_cast<double>(ops)
                   : 0.0;
  }
  double nonspec_fraction() const {
    return ops > 0
               ? static_cast<double>(nonspec_ops) / static_cast<double>(ops)
               : 0.0;
  }
};

// Whether a value is a result of the simulation (a pure function of config
// and seed, identical across processes, host threads and the fast-path
// switch) or a property of the host run: its wall time, or a count that
// depends on where the host heap placed the simulated lines.
enum class MetricTag { kSimulated, kHost };

// One RunStats member: its path ("tx.begins"), its tag, how two runs' values
// merge, whether two runs agree on it, and a change that makes it differ
// (for mutation tests). stats_rows() lists every member once.
struct StatsRow {
  const char* name;
  MetricTag tag;
  void (*merge)(RunStats& into, const RunStats& from);
  bool (*same)(const RunStats& a, const RunStats& b);
  void (*change)(RunStats& s);
};

std::span<const StatsRow> stats_rows();

// The name of the first simulated row on which a and b differ, or "" when
// they agree on every one: the way to compare two runs.
std::string simulated_diff(const RunStats& a, const RunStats& b);

// Ordered collection of series, keyed by (scheme, lock). Each series is the
// RunStats::accumulate merge of the runs recorded under its key. Insertion
// order is preserved in the exports so tables read in the order benches
// ran.
class MetricsRegistry {
 public:
  struct Entry {
    std::string scheme;
    std::string lock;
    std::uint64_t runs = 0;
    RunStats stats;
  };

  void record(const std::string& scheme, const std::string& lock,
              const RunStats& run);

  const std::vector<Entry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  // {"series":[{"scheme":..., "lock":..., "aborts_by_cause":{...},
  //             "attempts_hist":{...}, "rejoin_cycles_hist":{...},
  //             "avalanche":{...}}, ...]}
  void export_json(std::FILE* out) const;
  // One row per series; histograms flattened to mean/max.
  void export_csv(std::FILE* out) const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace elision::harness

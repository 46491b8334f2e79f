// Benchmark-suite orchestration: a curated, tiered set of (scheme x lock x
// workload) points drawn from the paper's figures, tables and ablations.
// Each point holds exactly one workload definition — RB-tree, engine
// microbenchmark, B+tree, phase-shifting RB-tree or sharded KV service —
// and runs through run_point, the one seed fan-out and merge shared by
// every kind (a kind contributes only its run_*_point_once), with
//
//   - canonical machine-readable results (BENCH_results.json) carrying
//     per-point throughput, spec/nonspec fractions, attempts-per-op, the
//     abort-cause matrix and avalanche episode counts, plus run metadata
//     (duration scale, machine config, host and job settings), written and
//     parsed through one field table per JSON object (suite_schema.cpp);
//   - regression gating against a committed baseline, each gated metric's
//     tolerance and direction declared on its row of the same metrics
//     table that writes and parses it; and
//   - the paper's qualitative invariants (Ch. 5/6) checked on every run,
//     e.g. SCM >= plain HLE on the contended MCS point, adjusted ticket/CLH
//     locks committing speculatively when solo.
//
// `elide suite` is the CLI front-end; scripts/check.sh runs the smoke
// tier as a pre-merge gate. See docs/benchmarks.md for the schema and the
// baseline-update workflow.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "harness/bt_workload.hpp"
#include "harness/micro_point.hpp"
#include "harness/phase_workload.hpp"
#include "harness/rb_workload.hpp"
#include "service/kv_workload.hpp"
#include "support/json.hpp"
#include "tsx/abort.hpp"

namespace elision::harness {

inline constexpr int kSuiteSchemaVersion = 1;

enum class SuiteTier { kSmoke, kFull };

const char* suite_tier_name(SuiteTier t);
std::optional<SuiteTier> suite_tier_from_name(std::string_view name);

// What workload a suite point runs: the RB-tree benchmark (fixed virtual
// duration), the B+tree range-scan benchmark over the two-mode locks
// (harness/bt_workload.hpp), the fixed-work engine microbenchmark
// (harness/micro_point.hpp) whose sim_ops_per_sec tracks simulator speed
// itself, the phase-shifting RB-tree benchmark behind the adaptive
// headline (harness/phase_workload.hpp), or the sharded KV service under
// Zipf-skewed open-loop traffic (service/kv_workload.hpp). The enumerators
// follow the PointWorkload alternatives.
enum class PointKind { kRb, kMicro, kBtree, kPhase, kKv };
using PointWorkload = std::variant<RbPoint, MicroPoint, BtPoint, PhasePoint,
                                   service::KvPoint>;

const char* point_kind_name(PointKind k);

// Runs any point: a multi-seed point's `seeds` fan out over up to
// `host_threads` host threads through run_seeds and the kind's
// run_*_point_once, and RunStats::accumulate merges them in seed order, so
// the result is byte-identical at any host_threads. A micro point is one
// run. An RbPoint's single-run observers (telemetry_sink, adaptive_out)
// must be null here.
RunStats run_point(const PointWorkload& w, int host_threads = 1);

struct SuitePoint {
  std::string id;      // stable key used for baseline matching
  SuiteTier tier = SuiteTier::kSmoke;  // smoke is a subset of the full tier
  std::string figure;  // paper figure/table the point reproduces
  PointWorkload workload;

  PointKind kind() const { return static_cast<PointKind>(workload.index()); }
};

// ---- the point schema (suite_schema.cpp): one field table per kind ----

// The id a workload is registered under, e.g. rb-s64-u20-t8-mcs-hle; a
// big-machine point ends in its shape, -m<cores>x<smt>.
std::string point_id(const PointWorkload& w);

// elide suite --list: the point's fields that fill `column`, as their JSON
// values joined with '/', or "-" when its kind lists none there.
inline constexpr const char* kPointListColumns[] = {"lock", "scheme", "size",
                                                    "upd%", "thr",    "seeds"};
std::string point_column(const SuitePoint& sp, std::string_view column);

// Whether the point records telemetry (its "telemetry" field).
bool point_telemetry(const SuitePoint& sp);

// The curated list, smoke points first. Ids are unique.
const std::vector<SuitePoint>& suite_points();
// Points belonging to `tier` (kFull returns everything).
std::vector<SuitePoint> suite_points_for(SuiteTier tier);

// Derived, comparable metrics of one completed point. This is the unit the
// baseline stores and the gate compares.
struct PointMetrics {
  double throughput_ops_per_sec = 0.0;
  double spec_fraction = 0.0;
  double nonspec_fraction = 0.0;
  double attempts_per_op = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t attempts = 0;
  std::uint64_t elapsed_cycles = 0;
  std::uint64_t tx_begins = 0;
  std::uint64_t tx_commits = 0;
  std::uint64_t tx_aborts = 0;
  // Indexed by tsx::AbortCause.
  std::vector<std::uint64_t> aborts_by_cause;
  std::uint64_t avalanche_episodes = 0;
  std::uint64_t avalanche_victims = 0;
  // kPhase points only: ops committed per phase (empty otherwise). Phases
  // have equal virtual duration, so these compare like throughputs; the
  // adaptive invariants below consume them.
  std::vector<std::uint64_t> phase_ops;
  // Virtual-time request-latency percentiles per op kind (empty unless the
  // workload records RunStats::op_latency — currently the kKv points). All
  // cycle values are integers (QuantileHistogram bucket bounds), so they
  // are byte-identical across host parallelism settings.
  struct OpLatencySummary {
    std::string op;
    std::uint64_t samples = 0;
    std::uint64_t p50_cycles = 0;
    std::uint64_t p99_cycles = 0;
    std::uint64_t p999_cycles = 0;
    std::uint64_t max_cycles = 0;
  };
  std::vector<OpLatencySummary> latency;
  // Per-access fast-path telemetry (docs/simulator.md): owned-line cache
  // hits, slot-memo probe skips, and switch-bound recomputes. Host-side
  // observability of the hot path — none of these feed a simulated metric.
  // fp_bound_recomputes is schedule-determined (identical across processes)
  // but fp_owned_hits/fp_probe_skips depend on the host heap layout: line
  // ids are real addresses >> 6 and index the direct-mapped caches, so two
  // processes can see different collision patterns while simulating the
  // exact same run. Comparisons (gate, parallel-identity, baseline drift)
  // must treat the whole object like wall_ms and ignore it. Emitted in JSON
  // as an optional "fastpath" object only when at least one is non-zero
  // (ELISION_FASTPATH=0 runs stay byte-identical to pre-fastpath output).
  std::uint64_t fp_owned_hits = 0;
  std::uint64_t fp_probe_skips = 0;
  std::uint64_t fp_bound_recomputes = 0;
  // Host-side speed: simulated ops completed per host wall second and the
  // point's host wall time. These are the only non-deterministic fields of a
  // point (everything above is virtual-time data, identical per seed).
  double sim_ops_per_sec = 0.0;
  double wall_ms = 0.0;

  static PointMetrics derive(const RunStats& stats);
};

struct PointRecord {
  SuitePoint def;
  PointMetrics metrics;
};

struct SuiteResult {
  SuiteTier tier = SuiteTier::kSmoke;
  double duration_scale = 1.0;
  // Machine config shared by all points (seeds vary per point).
  unsigned n_cores = 0;
  unsigned smt_per_core = 0;
  double ghz = 0.0;
  // Host-run metadata: hardware thread count of the machine that produced
  // the results, the --jobs level (points run concurrently on an in-process
  // pool), the per-point multi-seed fan-out width, and the suite's total
  // wall time. Like every host field, none of this affects the simulated
  // metrics.
  unsigned host_cores = 0;
  int jobs = 1;
  int host_threads = 1;
  double total_wall_ms = 0.0;
  std::vector<PointRecord> points;

  const PointRecord* find(const std::string& id) const;
};

// Runs `points` up to `jobs` at a time on an in-process host-thread pool
// (support/parallel.hpp; jobs <= 1 runs them inline, in order), each with
// its multi-seed fan-out `host_threads` wide, and fills the run metadata.
// Records come back in `points` order, so every simulated metric is
// identical at any jobs/host_threads; only wall_ms, sim_ops_per_sec and
// run.host change. The result's tier is kFull if any point is full-only,
// else kSmoke.
SuiteResult run_suite(const std::vector<SuitePoint>& points, int jobs = 1,
                      int host_threads = 1);

// ---- canonical JSON results ----

// Writes the BENCH_results.json document (schema_version 1).
void write_results_json(const SuiteResult& result, std::FILE* out);

// Parses a document produced by write_results_json (e.g. the committed
// baseline). Nullopt on schema mismatch or malformed input — including a
// point whose kind, lock, scheme or tier does not parse, or whose metrics
// lack an always-written key. Absent point fields keep their defaults.
// write(parse(write(r))) == write(r).
std::optional<SuiteResult> parse_results_json(const support::json::Value& doc);
std::optional<SuiteResult> load_results_file(const std::string& path);

// ---- regression gate ----

// How the gate compares one metric with its baseline value b. Each is a row
// of the metrics table (suite_schema.cpp), the same row that writes and
// parses the key. The bound is b x (1 +/- tol) when relative, else
// b +/- tol. Past it in the worse direction is a regression; past it in the
// better direction is an improvement, if the row reports improvements. A
// relative bound needs baseline data, so b = 0 skips the metric.
struct GatedMetric {
  const char* key;
  double PointMetrics::*value;
  double tol;
  bool relative;
  bool higher_is_better;
  bool reports_improvement;
  // Host simulator speed, not a virtual-time result: compare_to_baseline's
  // simops_rel, if given, replaces tol, and a current 0 (no data) skips it.
  bool host_speed = false;
};

// The gated rows of the metrics table, in table order.
std::vector<GatedMetric> gated_metrics();

struct GateIssue {
  std::string point_id;
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  std::string detail;
};

struct GateReport {
  std::vector<GateIssue> regressions;   // gate fails if non-empty
  std::vector<GateIssue> improvements;  // beyond tolerance: refresh baseline
  std::vector<std::string> notes;       // metadata drift, new points, ...
  bool ok() const { return regressions.empty(); }
};

// Compares every current point against the baseline point with the same id,
// each gated_metrics() row under its own rule. A baseline point of the
// current tier that is missing from `current` is a regression (coverage
// loss); points new in `current` are notes.
GateReport compare_to_baseline(const SuiteResult& current,
                               const SuiteResult& baseline,
                               std::optional<double> simops_rel = {});

void print_gate_report(const GateReport& report, std::FILE* out);

// ---- paper-qualitative invariants ----

struct InvariantResult {
  std::string name;
  bool ok = false;
  bool skipped = false;  // required point not in this tier / no telemetry
  std::string detail;
};

// Checks the qualitative expectations of Ch. 5/6 on a completed run. A
// violated invariant means behaviour diverged from the paper, independent
// of any baseline.
std::vector<InvariantResult> check_invariants(const SuiteResult& result);

}  // namespace elision::harness

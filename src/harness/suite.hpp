// Benchmark-suite orchestration: a curated, tiered set of (scheme x lock x
// workload) points drawn from the figure/table/ablation benches. Each point
// holds exactly one workload definition — RB-tree, engine microbenchmark,
// B+tree, phase-shifting RB-tree or sharded KV service — and runs through
// that workload's library entry point, with
//
//   - canonical machine-readable results (BENCH_results.json) carrying
//     per-point throughput, spec/nonspec fractions, attempts-per-op, the
//     abort-cause matrix and avalanche episode counts, plus run metadata
//     (seeds, duration scale, machine config, telemetry availability),
//     written and parsed through one field table per workload kind
//     (suite_schema.cpp);
//   - regression gating against a committed baseline with per-metric
//     relative tolerances; and
//   - the paper's qualitative invariants (Ch. 5/6) checked on every run,
//     e.g. SCM >= plain HLE on the contended MCS point, adjusted ticket/CLH
//     locks committing speculatively when solo.
//
// tools/bench_suite is the CLI front-end; scripts/check.sh runs the smoke
// tier as a pre-merge gate. See docs/benchmarks.md for the schema and the
// baseline-update workflow.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
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
std::optional<SuiteTier> suite_tier_from_name(const std::string& name);

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

// bench_suite --list: the point's fields that fill `column`, as their JSON
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
  bool telemetry_compiled = false;
  // Machine config shared by all points (seeds vary per point).
  unsigned n_cores = 0;
  unsigned smt_per_core = 0;
  double ghz = 0.0;
  // Host-run metadata: physical core count of the machine that produced the
  // results, the --jobs level used, how those jobs were executed ("fork" =
  // one child process per point, "threads" = in-process pool), the per-point
  // multi-seed fan-out width, and the suite's total wall time. Like every
  // host field, none of this affects the simulated metrics.
  unsigned host_cores = 0;
  int jobs = 1;
  std::string jobs_mode = "fork";
  int host_threads = 1;
  double total_wall_ms = 0.0;
  std::vector<PointRecord> points;

  const PointRecord* find(const std::string& id) const;
};

struct SuiteRunOptions {
  // Multiplies every reported throughput: the planted-regression self-check
  // hook (scripts/check.sh runs the gate with 0.5 and expects it to fail).
  double plant_throughput_factor = 1.0;
  // Same for sim_ops_per_sec: the planted-slowdown self-check proving the
  // simulator-speed gate fires.
  double plant_simops_factor = 1.0;
  // Host threads each point's multi-seed fan-out may use (run_seeds in
  // harness/runner.hpp). Simulated metrics are
  // byte-identical at any value — only wall_ms / sim_ops_per_sec change.
  int host_threads = 1;
  // Progress callback, called after each point completes. May be null.
  std::function<void(const SuitePoint&, const PointMetrics&)> on_point;
};

SuiteResult run_suite(SuiteTier tier, const SuiteRunOptions& opts = {});

// Runs a single point (used by bench_suite --point, the per-point child of
// parallel suite execution, and by the in-process --jobs-mode threads
// runner), measuring wall_ms / sim_ops_per_sec. `host_threads` seeds the
// point's multi-seed fan-out width.
PointRecord run_suite_point(const SuitePoint& sp, int host_threads = 1);

// ---- canonical JSON results ----

// Writes the BENCH_results.json document (schema_version 1).
void write_results_json(const SuiteResult& result, std::FILE* out);

// Parses a document produced by write_results_json (e.g. the committed
// baseline). Nullopt on schema mismatch or malformed input — including a
// point whose kind, lock, scheme or tier does not parse. Absent point
// fields keep their defaults. write(parse(write(r))) == write(r).
std::optional<SuiteResult> parse_results_json(const support::json::Value& doc);
std::optional<SuiteResult> load_results_file(const std::string& path);

// ---- regression gate ----

struct GateTolerance {
  // Throughput regression: current < baseline * (1 - throughput_rel).
  double throughput_rel = 0.10;
  // Attempts-per-op regression: current > baseline * (1 + attempts_rel).
  double attempts_rel = 0.15;
  // Non-speculative-fraction regression: current > baseline + fraction_abs.
  double fraction_abs = 0.08;
  // Simulator-speed regression: current sim_ops_per_sec <
  // baseline * (1 - simops_rel). Host speed varies across machines far more
  // than virtual-time metrics do, hence the generous default; gate a
  // same-machine baseline with a tight value (scripts/check.sh does).
  double simops_rel = 0.75;
};

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

// Compares every current point against the baseline point with the same id.
// A baseline point of the current tier that is missing from `current` is a
// regression (coverage loss); points new in `current` are notes.
GateReport compare_to_baseline(const SuiteResult& current,
                               const SuiteResult& baseline,
                               const GateTolerance& tol = {});

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

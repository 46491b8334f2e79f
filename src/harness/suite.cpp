#include "harness/suite.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <type_traits>

#include "sim/machine_config.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "tsx/telemetry.hpp"

namespace elision::harness {

const char* suite_tier_name(SuiteTier t) {
  switch (t) {
    case SuiteTier::kSmoke: return "smoke";
    case SuiteTier::kFull: return "full";
  }
  return "?";
}

std::optional<SuiteTier> suite_tier_from_name(std::string_view name) {
  if (name == "smoke") return SuiteTier::kSmoke;
  if (name == "full") return SuiteTier::kFull;
  return std::nullopt;
}

namespace {

SuitePoint point(SuiteTier tier, const char* figure, PointWorkload w) {
  SuitePoint sp;
  sp.id = point_id(w);
  sp.tier = tier;
  sp.figure = figure;
  sp.workload = std::move(w);
  return sp;
}

RbPoint rb(std::size_t size, int update_pct, int threads, locks::LockId lock,
           locks::ElisionPolicy scheme, bool telemetry = false) {
  RbPoint p;
  p.size = size;
  p.update_pct = update_pct;
  p.threads = threads;
  p.lock = lock;
  p.scheme = scheme;
  p.telemetry = telemetry;
  p.seeds = threads == 1 ? 1 : 2;
  return p;
}

BtPoint bt(std::size_t size, int update_pct, int scan_pct,
           std::size_t scan_len, locks::LockId lock,
           locks::ElisionPolicy policy, bool telemetry = false) {
  BtPoint p;
  p.size = size;
  p.update_pct = update_pct;
  p.scan_pct = scan_pct;
  p.scan_len = scan_len;
  p.lock = lock;
  p.policy = policy;
  p.telemetry = telemetry;
  return p;
}

// Sharded-KV service points: shard/domain/skew/mix shape next to the policy.
service::KvPoint kv(int clients, double zipf_theta, int put_pct,
                    int multi_put_pct, int transfer_pct,
                    locks::ElisionPolicy policy, bool telemetry = false) {
  service::KvPoint p;
  p.clients = clients;
  p.zipf_theta = zipf_theta;
  p.put_pct = put_pct;
  p.multi_put_pct = multi_put_pct;
  p.transfer_pct = transfer_pct;
  p.policy = policy;
  p.telemetry = telemetry;
  return p;
}

PhasePoint phase(locks::ElisionPolicy policy) {
  PhasePoint p;
  p.size = 12;
  p.calm_update_pct = 10;
  p.storm_update_pct = 100;
  p.threads = 16;
  p.lock = locks::LockId::kTtas;
  p.scheme = policy;
  return p;
}

std::vector<SuitePoint> build_points() {
  using locks::ElisionPolicy;
  constexpr SuiteTier S = SuiteTier::kSmoke;
  constexpr SuiteTier F = SuiteTier::kFull;
  using enum locks::LockId;
  std::vector<SuitePoint> v;
  auto add = [&](SuiteTier tier, const char* figure, PointWorkload w) {
    v.push_back(point(tier, figure, std::move(w)));
  };

  // --- smoke tier: the qualitative backbone of Ch. 3/5/6, < 30s wall ---
  // Contended small tree on TTAS (Fig 5.1/5.2 left edge).
  add(S, "fig5.1", rb(64, 20, 8, kTtas, ElisionPolicy::standard()));
  add(S, "fig5.1", rb(64, 20, 8, kTtas, ElisionPolicy::hle()));
  add(S, "fig5.2", rb(64, 20, 8, kTtas, ElisionPolicy::hle_scm()));
  add(S, "fig5.2", rb(64, 20, 8, kTtas, ElisionPolicy::opt_slr_scm()));
  // Contended MCS: the avalanche point (Fig 3.3) and its SCM rescue, with
  // telemetry so episode counts land in the results.
  add(S, "fig3.3", rb(64, 20, 8, kMcs, ElisionPolicy::hle(), true));
  add(S, "fig5.2", rb(64, 20, 8, kMcs, ElisionPolicy::hle_scm(), true));
  // Low-contention big tree (Fig 3.4 right edge: elision pays off solo).
  add(S, "fig3.4", rb(8192, 20, 8, kTtas, ElisionPolicy::hle()));
  // Ch. 6 fair locks, solo: adjusted ticket/CLH must elide, the unadjusted
  // ticket must not (XRELEASE mismatch on every attempt).
  add(S, "ch6", rb(64, 20, 1, kTicketAdj, ElisionPolicy::hle()));
  add(S, "ch6", rb(64, 20, 1, kClhAdj, ElisionPolicy::hle()));
  add(S, "ch6", rb(64, 20, 1, kTicket, ElisionPolicy::hle()));
  // Simulator-speed canary: fixed-work RTM microbenchmark whose
  // sim_ops_per_sec (simulated ops per host second) gates host-side engine
  // performance. Its simulated metrics are deterministic like every other
  // point's.
  add(S, "sim-speed", MicroPoint{});
  // Big-machine simulator-speed canary: 64 threads on a 32-core / 2-SMT
  // machine, striped stripes with a sparser shared-line period (every 64th
  // op) and a little yield slack so the scheduler runs long bursts, with a
  // ready-queue ring four times as full as at 16 threads
  // (sim/ready_queue.hpp). Gated like the t8 canary; the two together pin
  // both ends of the machine-size range.
  {
    MicroPoint p;
    p.threads = 64;
    p.array_words = 16384;
    p.ops_per_thread = 8000;
    p.shared_period = 64;
    p.n_cores = 32;
    p.smt_per_core = 2;
    p.yield_slack_cycles = 200;
    add(S, "sim-speed", p);
  }

  // Two-mode B+tree points (shared-mode elision). The read-mostly pair is
  // the headline comparison: identical mix and lock, reads exclusive vs
  // shared. Shared mode pays off through its fallback path: an exclusive
  // fallback read claims the writer word and serializes everyone, while a
  // shared fallback read counts itself on the reader line and coexists —
  // with the elided crowd too, since that line is not the one the crowd
  // subscribes to (see locks/shared_word.hpp). The writer-heavy point
  // watches the reader-avalanche (a writer's real acquisition of the
  // reader-writer word aborts the whole subscribed reader crowd) through
  // telemetry.
  add(S, "shared-elision",
      bt(1024, 10, 100, 64, kSharedTtas, ElisionPolicy::hle()));
  add(S, "shared-elision",
      bt(1024, 10, 100, 64, kSharedTtas, ElisionPolicy::hle().shared()));
  add(S, "shared-avalanche",
      bt(128, 80, 30, 16, kSharedTtas, ElisionPolicy::hle().shared(), true));

  // Phase-shifting adaptive headline: one read-mostly -> write-storm ->
  // read-mostly run, adaptive against each of its four static modes. The
  // adaptive invariants key on these ids: adaptive must stay within 10% of
  // the per-phase winner in every phase while every static scheme loses at
  // least one phase.
  for (const ElisionPolicy& pol :
       {ElisionPolicy::adaptive(), ElisionPolicy::hle(),
        ElisionPolicy::hle_scm(), ElisionPolicy::hle_grouped_scm(),
        ElisionPolicy::standard()}) {
    add(S, "adaptive-phases", phase(pol));
  }

  // Sharded KV service under Zipf-skewed open-loop traffic (the
  // production-shaped workload). The headline pair runs the same
  // moderate-skew mix under per-shard adaptive elision vs the static HLE
  // baseline (plus plain locking for scale); the hot-shard point cranks the
  // skew until one shard saturates and — with telemetry on — must show the
  // avalanche signature there.
  add(S, "kv-service", kv(2000, 0.99, 20, 5, 5, ElisionPolicy::standard()));
  add(S, "kv-service", kv(2000, 0.99, 20, 5, 5, ElisionPolicy::hle()));
  add(S, "kv-service", kv(2000, 0.99, 20, 5, 5, ElisionPolicy::adaptive()));
  add(S, "kv-hot-shard", kv(4000, 1.20, 40, 5, 5, ElisionPolicy::hle(), true));

  // --- full tier: wider scheme / size / mix / lock coverage ---
  // KV coverage: SCM-managed and grouped-SCM service variants on the
  // standard mix, and a cross-shard-heavy mix exercising the multi-lock
  // elision region and its ordered fallback.
  add(F, "kv-service", kv(2000, 0.99, 20, 5, 5, ElisionPolicy::hle_scm()));
  add(F, "kv-service",
      kv(2000, 0.99, 20, 5, 5, ElisionPolicy::hle_grouped_scm()));
  add(F, "kv-cross-shard", kv(2000, 0.99, 10, 25, 25, ElisionPolicy::hle()));
  // Shared-mode coverage: the fair family member, the SCM-managed pair
  // (fallbacks gated through the auxiliary lock never happen on this mix,
  // so the two run identically — speculation already admits everyone), and
  // the no-speculation shared baseline.
  add(F, "shared-elision",
      bt(1024, 10, 100, 64, kSharedMcs, ElisionPolicy::hle().shared()));
  add(F, "shared-elision",
      bt(1024, 10, 100, 64, kSharedMcs, ElisionPolicy::hle()));
  add(F, "shared-elision",
      bt(1024, 10, 100, 64, kSharedTtas, ElisionPolicy::hle_scm().shared()));
  add(F, "shared-elision",
      bt(1024, 10, 100, 64, kSharedTtas, ElisionPolicy::hle_scm()));
  add(F, "shared-elision",
      bt(1024, 10, 100, 64, kSharedTtas, ElisionPolicy::standard().shared()));
  add(F, "fig5.2", rb(64, 20, 8, kTtas, ElisionPolicy::pes_slr()));
  add(F, "fig5.2", rb(64, 20, 8, kTtas, ElisionPolicy::opt_slr()));
  add(F, "fig5.1", rb(64, 20, 8, kMcs, ElisionPolicy::standard()));
  add(F, "fig5.2", rb(64, 20, 8, kMcs, ElisionPolicy::opt_slr_scm()));
  add(F, "fig3.4", rb(512, 20, 8, kTtas, ElisionPolicy::hle()));
  add(F, "fig3.4", rb(32768, 20, 8, kTtas, ElisionPolicy::hle()));
  add(F, "fig5.1", rb(64, 0, 8, kTtas, ElisionPolicy::hle_scm()));
  add(F, "fig5.1", rb(64, 100, 8, kTtas, ElisionPolicy::hle_scm()));
  add(F, "tbl-fairlocks",
      rb(64, 20, 8, kTicketAdj, ElisionPolicy::hle_scm()));
  add(F, "tbl-fairlocks",
      rb(64, 20, 8, kClhAdj, ElisionPolicy::hle_scm()));
  add(F, "fig3.5", rb(64, 20, 8, kTtas, ElisionPolicy::rtm_elide()));
  add(F, "abl-scm-nested",
      rb(64, 20, 8, kTtas, ElisionPolicy::hle_scm_nested()));
  add(F, "abl-grouped-scm",
      rb(64, 20, 8, kTtas, ElisionPolicy::hle_grouped_scm()));
  // Big-machine scaling points: the fig5.1 shape at 64, 128 and 256 threads
  // on 2-SMT machines of half as many cores — the regime Fissile Locks / the
  // HTM tree template report from. 256 is kMaxSimThreads, so the last point
  // fills the scheduler's ready-queue ring to capacity. A bit of yield
  // slack keeps the wide interleaving from degenerating into
  // access-granularity round-robin.
  // Their ids end in the machine shape (-m<cores>x<smt>), so future shapes
  // at the same (size, threads) stay distinct.
  for (const int threads : {64, 128, 256}) {
    RbPoint p = rb(64, 20, threads, kTtas, ElisionPolicy::hle_scm());
    p.n_cores = static_cast<unsigned>(threads / 2);
    p.smt_per_core = 2;
    p.yield_slack_cycles = 200;
    add(F, "fig5.1-big", p);
  }
  return v;
}

}  // namespace

const std::vector<SuitePoint>& suite_points() {
  static const std::vector<SuitePoint> points = build_points();
  return points;
}

std::vector<SuitePoint> suite_points_for(SuiteTier tier) {
  std::vector<SuitePoint> out;
  for (const auto& p : suite_points()) {
    if (tier == SuiteTier::kFull || p.tier == SuiteTier::kSmoke) {
      out.push_back(p);
    }
  }
  return out;
}

PointMetrics PointMetrics::derive(const RunStats& stats) {
  PointMetrics m;
  m.throughput_ops_per_sec = stats.throughput();
  m.nonspec_fraction = stats.nonspec_fraction();
  m.spec_fraction =
      stats.ops > 0 ? static_cast<double>(stats.spec_ops) /
                          static_cast<double>(stats.ops)
                    : 0.0;
  m.attempts_per_op = stats.attempts_per_op();
  m.ops = stats.ops;
  m.attempts = stats.attempts;
  m.elapsed_cycles = stats.elapsed_cycles;
  m.tx_begins = stats.tx.begins;
  m.tx_commits = stats.tx.commits;
  m.tx_aborts = stats.tx.aborts;
  const auto n_causes = static_cast<std::size_t>(tsx::AbortCause::kCauseCount);
  m.aborts_by_cause.assign(n_causes, 0);
  for (std::size_t c = 0; c < n_causes; ++c) {
    m.aborts_by_cause[c] = stats.tx.aborts_by_cause[c];
  }
  m.avalanche_episodes = stats.episodes.size();
  for (const auto& ep : stats.episodes) {
    m.avalanche_victims += static_cast<std::uint64_t>(ep.victim_count());
  }
  for (const auto& ol : stats.op_latency) {
    m.latency.push_back({ol.op, ol.hist.samples(), ol.hist.quantile(0.50),
                         ol.hist.quantile(0.99), ol.hist.quantile(0.999),
                         ol.hist.max()});
  }
  m.fp_owned_hits = stats.tx.fp_owned_hits;
  m.fp_probe_skips = stats.tx.fp_probe_skips;
  m.fp_bound_recomputes = stats.fp_bound_recomputes;
  return m;
}

const PointRecord* SuiteResult::find(const std::string& id) const {
  for (const auto& p : points) {
    if (p.def.id == id) return &p;
  }
  return nullptr;
}

namespace {

RunStats run_once(const RbPoint& p) { return run_rb_point_once(p); }
RunStats run_once(const MicroPoint& p) { return run_micro_point(p); }
RunStats run_once(const BtPoint& p) { return run_bt_point_once(p); }
RunStats run_once(const PhasePoint& p) { return run_phase_point_once(p); }
RunStats run_once(const service::KvPoint& p) {
  return service::run_kv_point_once(p);
}

// Runs a single point, measuring wall_ms / sim_ops_per_sec.
PointRecord run_suite_point(const SuitePoint& sp, int host_threads) {
  const auto t0 = std::chrono::steady_clock::now();
  const RunStats stats = run_point(sp.workload, host_threads);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  PointMetrics m = PointMetrics::derive(stats);
  if (sp.kind() == PointKind::kPhase) {
    const auto per_phase = phase_ops_of(stats);
    m.phase_ops.assign(per_phase.begin(), per_phase.end());
  }
  m.wall_ms = wall_ms;
  m.sim_ops_per_sec =
      wall_ms > 0 ? static_cast<double>(m.ops) / (wall_ms / 1e3) : 0.0;
  return {sp, std::move(m)};
}

}  // namespace

RunStats run_point(const PointWorkload& w, int host_threads) {
  return std::visit(
      [host_threads](const auto& p) {
        using Point = std::decay_t<decltype(p)>;
        int seeds = 1;  // a micro point is one run
        if constexpr (requires { p.seeds; }) seeds = p.seeds;
        if constexpr (std::is_same_v<Point, RbPoint>) {
          ELISION_CHECK_MSG(
              p.telemetry_sink == nullptr && p.adaptive_out == nullptr,
              "run_point merges seeds; observe one run with "
              "run_rb_point_once");
        }
        return run_seeds(seeds, p.seed, host_threads,
                         [&p](std::size_t, std::uint64_t seed) {
                           Point q = p;
                           q.seed = seed;
                           return run_once(q);
                         });
      },
      w);
}

SuiteResult run_suite(const std::vector<SuitePoint>& points, int jobs,
                      int host_threads) {
  const auto t0 = std::chrono::steady_clock::now();
  SuiteResult result;
  for (const auto& sp : points) {
    if (sp.tier == SuiteTier::kFull) result.tier = SuiteTier::kFull;
  }
  result.duration_scale = env_duration_scale();
  const sim::MachineConfig machine;  // every point runs the paper's machine
  result.n_cores = machine.n_cores;
  result.smt_per_core = machine.smt_per_core;
  result.ghz = machine.ghz;
  result.host_cores = std::thread::hardware_concurrency();
  result.jobs = jobs > 0 ? jobs : 1;
  result.host_threads = host_threads > 0 ? host_threads : 1;
  // Each point is an independent simulation writing only its own slot.
  result.points.resize(points.size());
  support::parallel_for_each(
      points.size(),
      [&](std::size_t i) {
        result.points[i] = run_suite_point(points[i], result.host_threads);
      },
      result.jobs);
  result.total_wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  return result;
}

// ---- regression gate ----

GateReport compare_to_baseline(const SuiteResult& current,
                               const SuiteResult& baseline,
                               std::optional<double> simops_rel) {
  GateReport report;
  if (current.duration_scale != baseline.duration_scale) {
    report.notes.push_back(
        "duration_scale differs from baseline (" +
        std::to_string(current.duration_scale) + " vs " +
        std::to_string(baseline.duration_scale) +
        "); ratio metrics are compared anyway");
  }
  if (current.ghz != baseline.ghz || current.n_cores != baseline.n_cores ||
      current.smt_per_core != baseline.smt_per_core) {
    report.notes.push_back(
        "machine config differs from baseline; numbers may not be "
        "comparable");
  }

  for (const auto& cur : current.points) {
    const PointRecord* base = baseline.find(cur.def.id);
    if (base == nullptr) {
      report.notes.push_back("point " + cur.def.id +
                             " is not in the baseline (new point; refresh "
                             "the baseline to gate it)");
      continue;
    }
    const auto& bm = base->metrics;
    const auto& cm = cur.metrics;
    for (const GatedMetric& g : gated_metrics()) {
      const double b = bm.*g.value;
      const double c = cm.*g.value;
      if (g.relative && !(b > 0)) continue;
      if (g.host_speed && !(c > 0)) continue;
      const double tol = g.host_speed && simops_rel ? *simops_rel : g.tol;
      const bool above = g.relative ? c > b * (1 + tol) : c > b + tol;
      const bool below = g.relative ? c < b * (1 - tol) : c + tol < b;
      const bool worse = g.higher_is_better ? below : above;
      const bool better = g.higher_is_better ? above : below;
      char by[64];
      std::snprintf(by, sizeof by, " than the baseline by more than %g%s",
                    g.relative ? tol * 100 : tol, g.relative ? "%" : "");
      if (worse) {
        report.regressions.push_back(
            {cur.def.id, g.key, b, c, "worse" + std::string(by)});
      } else if (better && g.reports_improvement) {
        report.improvements.push_back(
            {cur.def.id, g.key, b, c,
             "better" + std::string(by) + "; refresh the baseline"});
      }
    }

    if (point_telemetry(cur.def) &&
        cm.avalanche_episodes != bm.avalanche_episodes) {
      report.notes.push_back(
          "point " + cur.def.id + ": avalanche episodes changed (" +
          std::to_string(bm.avalanche_episodes) + " -> " +
          std::to_string(cm.avalanche_episodes) + ")");
    }
  }

  // Coverage loss: a baseline point of this tier that no longer runs.
  for (const auto& base : baseline.points) {
    if (current.tier == SuiteTier::kSmoke &&
        base.def.tier != SuiteTier::kSmoke) {
      continue;  // baseline may be full-tier; smoke runs only its subset
    }
    if (current.find(base.def.id) == nullptr) {
      report.regressions.push_back(
          {base.def.id, "coverage", 0.0, 0.0,
           "baseline point missing from this run (coverage loss)"});
    }
  }
  return report;
}

void print_gate_report(const GateReport& report, std::FILE* out) {
  for (const auto& note : report.notes) {
    std::fprintf(out, "note: %s\n", note.c_str());
  }
  for (const auto& [label, issues] :
       {std::pair{"improvement", &report.improvements},
        std::pair{"REGRESSION", &report.regressions}}) {
    for (const auto& i : *issues) {
      std::fprintf(out, "%s: %s %s: %.4g -> %.4g (%s)\n", label,
                   i.point_id.c_str(), i.metric.c_str(), i.baseline,
                   i.current, i.detail.c_str());
    }
  }
  std::fprintf(out, "gate: %zu regression(s), %zu improvement(s), %zu "
                    "note(s)\n",
               report.regressions.size(), report.improvements.size(),
               report.notes.size());
}

// ---- paper-qualitative invariants ----

namespace {

InvariantResult skipped(const char* name, const char* why) {
  return {name, /*ok=*/true, /*skipped=*/true, why};
}

}  // namespace

std::vector<InvariantResult> check_invariants(const SuiteResult& result) {
  std::vector<InvariantResult> out;
  auto point = [&](const char* id) { return result.find(id); };
  char buf[256];

  // (1) SCM >= plain HLE throughput on the contended MCS point: software
  // conflict management eliminates the avalanche (Fig 5.2 headline claim).
  {
    const char* name = "scm-beats-hle-on-contended-mcs";
    const auto* hle = point("rb-s64-u20-t8-mcs-hle");
    const auto* scm = point("rb-s64-u20-t8-mcs-hle-scm");
    if (hle == nullptr || scm == nullptr) {
      out.push_back(skipped(name, "required points not in this tier"));
    } else {
      const bool ok = scm->metrics.throughput_ops_per_sec >=
                      hle->metrics.throughput_ops_per_sec;
      std::snprintf(buf, sizeof buf, "HLE-SCM %.3g ops/s vs HLE %.3g ops/s",
                    scm->metrics.throughput_ops_per_sec,
                    hle->metrics.throughput_ops_per_sec);
      out.push_back({name, ok, false, buf});
    }
  }

  // (2) Same on the contended TTAS point (gains appear under contention).
  {
    const char* name = "scm-beats-hle-on-contended-ttas";
    const auto* hle = point("rb-s64-u20-t8-ttas-hle");
    const auto* scm = point("rb-s64-u20-t8-ttas-hle-scm");
    if (hle == nullptr || scm == nullptr) {
      out.push_back(skipped(name, "required points not in this tier"));
    } else {
      const bool ok = scm->metrics.throughput_ops_per_sec >=
                      hle->metrics.throughput_ops_per_sec;
      std::snprintf(buf, sizeof buf, "HLE-SCM %.3g ops/s vs HLE %.3g ops/s",
                    scm->metrics.throughput_ops_per_sec,
                    hle->metrics.throughput_ops_per_sec);
      out.push_back({name, ok, false, buf});
    }
  }

  // (3) Adjusted ticket/CLH locks commit speculatively when solo (Ch. 6:
  // the release-store adjustment restores XRELEASE elision).
  for (const auto& [id, name] :
       {std::pair{"rb-s64-u20-t1-ticket-adj-hle",
                  "adjusted-ticket-elides-solo"},
        std::pair{"rb-s64-u20-t1-clh-adj-hle", "adjusted-clh-elides-solo"}}) {
    const auto* p = point(id);
    if (p == nullptr) {
      out.push_back(skipped(name, "required point not in this tier"));
    } else {
      const bool ok = p->metrics.spec_fraction >= 0.9;
      std::snprintf(buf, sizeof buf, "spec fraction %.4f (want >= 0.9)",
                    p->metrics.spec_fraction);
      out.push_back({name, ok, false, buf});
    }
  }

  // (4) The unadjusted ticket lock never elides: its release store does not
  // restore the lock word, so every speculative attempt aborts.
  {
    const char* name = "unadjusted-ticket-serializes";
    const auto* p = point("rb-s64-u20-t1-ticket-hle");
    if (p == nullptr) {
      out.push_back(skipped(name, "required point not in this tier"));
    } else {
      const bool ok = p->metrics.nonspec_fraction >= 0.99;
      std::snprintf(buf, sizeof buf, "nonspec fraction %.4f (want >= 0.99)",
                    p->metrics.nonspec_fraction);
      out.push_back({name, ok, false, buf});
    }
  }

  // (5) The standard scheme never speculates.
  {
    const char* name = "standard-is-nonspeculative";
    const auto* p = point("rb-s64-u20-t8-ttas-standard");
    if (p == nullptr) {
      out.push_back(skipped(name, "required point not in this tier"));
    } else {
      const bool ok = p->metrics.spec_fraction == 0.0;
      std::snprintf(buf, sizeof buf, "spec fraction %.4f (want 0)",
                    p->metrics.spec_fraction);
      out.push_back({name, ok, false, buf});
    }
  }

  // (6) HLE over MCS on a contended small tree exhibits the avalanche
  // (Fig 3.3); requires telemetry.
  {
    const char* name = "hle-mcs-avalanche-detected";
    const auto* p = point("rb-s64-u20-t8-mcs-hle");
    if (p == nullptr) {
      out.push_back(skipped(name, "required point not in this tier"));
    } else {
      const bool ok = p->metrics.avalanche_episodes >= 1;
      std::snprintf(buf, sizeof buf, "%llu avalanche episodes (want >= 1)",
                    static_cast<unsigned long long>(
                        p->metrics.avalanche_episodes));
      out.push_back({name, ok, false, buf});
    }
  }

  // (7) Shared-mode elision pays off on the read-mostly B+tree point: with
  // 90% lookups/scans, the `+shared` policy (fallback readers coexist with
  // each other and with the elided crowd) must beat the exclusive-elided
  // equivalent, whose fallback reads serialize through the writer word.
  {
    const char* name = "shared-elision-beats-exclusive-read-mostly";
    const auto* excl = point("bt-s1024-u10-c100-l64-t8-shared-ttas-hle");
    const auto* shrd =
        point("bt-s1024-u10-c100-l64-t8-shared-ttas-hle+shared");
    if (excl == nullptr || shrd == nullptr) {
      out.push_back(skipped(name, "required points not in this tier"));
    } else {
      const bool ok = shrd->metrics.throughput_ops_per_sec >
                      excl->metrics.throughput_ops_per_sec;
      std::snprintf(buf, sizeof buf,
                    "hle+shared %.3g ops/s vs hle %.3g ops/s",
                    shrd->metrics.throughput_ops_per_sec,
                    excl->metrics.throughput_ops_per_sec);
      out.push_back({name, ok, false, buf});
    }
  }

  // (8) The writer-heavy B+tree point exhibits the reader avalanche: real
  // writer acquisitions of the reader-writer word abort the subscribed
  // elided-reader crowd, visible as telemetry episodes.
  {
    const char* name = "shared-btree-reader-avalanche-detected";
    const auto* p = point("bt-s128-u80-c30-l16-t8-shared-ttas-hle+shared");
    if (p == nullptr) {
      out.push_back(skipped(name, "required point not in this tier"));
    } else {
      const bool ok = p->metrics.avalanche_episodes >= 1;
      std::snprintf(buf, sizeof buf, "%llu avalanche episodes (want >= 1)",
                    static_cast<unsigned long long>(
                        p->metrics.avalanche_episodes));
      out.push_back({name, ok, false, buf});
    }
  }

  // (9)+(10) The adaptive-elision headline on the phase-shifting point
  // (docs/adaptive.md): per phase, adaptive must commit at least 90% of the
  // best static scheme's ops — while each static scheme must itself fall
  // below that bar in at least one phase (i.e. no static scheme dominates;
  // only the controller tracks the per-phase winner) — and in total it must
  // beat the worst static scheme.
  {
    const char* adaptive_id = "ph-s12-u10-100-t16-ttas-adaptive";
    const char* static_ids[] = {
        "ph-s12-u10-100-t16-ttas-hle",
        "ph-s12-u10-100-t16-ttas-hle-scm",
        "ph-s12-u10-100-t16-ttas-hle-gscm",
        "ph-s12-u10-100-t16-ttas-standard",
    };
    const double bar = 0.9;
    const auto* ad = point(adaptive_id);
    bool have_all = ad != nullptr && ad->metrics.phase_ops.size() == 3;
    std::vector<const PointRecord*> statics;
    for (const char* id : static_ids) {
      const auto* p = point(id);
      if (p == nullptr || p->metrics.phase_ops.size() != 3) have_all = false;
      statics.push_back(p);
    }
    if (!have_all) {
      out.push_back(skipped("adaptive-tracks-phase-winner",
                            "phase points not in this tier"));
      out.push_back(skipped("every-static-scheme-loses-a-phase",
                            "phase points not in this tier"));
      out.push_back(skipped("adaptive-beats-worst-static-total",
                            "phase points not in this tier"));
    } else {
      // Per-phase best among the static schemes.
      std::uint64_t best[3] = {0, 0, 0};
      for (const auto* p : statics) {
        for (int ph = 0; ph < 3; ++ph) {
          if (p->metrics.phase_ops[static_cast<std::size_t>(ph)] > best[ph]) {
            best[ph] = p->metrics.phase_ops[static_cast<std::size_t>(ph)];
          }
        }
      }
      {
        const char* name = "adaptive-tracks-phase-winner";
        bool ok = true;
        int worst_phase = 0;
        double worst_ratio = 1e9;
        for (int ph = 0; ph < 3; ++ph) {
          const double ratio =
              best[ph] > 0
                  ? static_cast<double>(
                        ad->metrics.phase_ops[static_cast<std::size_t>(ph)]) /
                        static_cast<double>(best[ph])
                  : 1.0;
          if (ratio < worst_ratio) {
            worst_ratio = ratio;
            worst_phase = ph;
          }
          if (ratio < bar) ok = false;
        }
        std::snprintf(buf, sizeof buf,
                      "worst phase %d: adaptive at %.2fx the best static "
                      "scheme (want >= %.2fx in every phase)",
                      worst_phase, worst_ratio, bar);
        out.push_back({name, ok, false, buf});
      }
      {
        const char* name = "every-static-scheme-loses-a-phase";
        bool ok = true;
        std::string detail;
        for (std::size_t i = 0; i < statics.size(); ++i) {
          const auto* p = statics[i];
          bool loses_somewhere = false;
          for (int ph = 0; ph < 3; ++ph) {
            const auto ops =
                p->metrics.phase_ops[static_cast<std::size_t>(ph)];
            if (static_cast<double>(ops) <
                bar * static_cast<double>(best[ph])) {
              loses_somewhere = true;
              break;
            }
          }
          if (!loses_somewhere) {
            ok = false;
            if (!detail.empty()) detail += ", ";
            detail += static_ids[i];
            detail += " never drops below 0.9x the per-phase best";
          }
        }
        if (ok) detail = "each static scheme trails in at least one phase";
        out.push_back({name, ok, false, detail});
      }
      {
        // The headline in one number: over the whole phase shift, adaptive
        // commits more than the worst static scheme.
        const char* name = "adaptive-beats-worst-static-total";
        auto total = [](const PointRecord* p) {
          std::uint64_t sum = 0;
          for (const std::uint64_t ops : p->metrics.phase_ops) sum += ops;
          return sum;
        };
        std::uint64_t worst = std::numeric_limits<std::uint64_t>::max();
        for (const auto* p : statics) worst = std::min(worst, total(p));
        std::snprintf(buf, sizeof buf,
                      "adaptive %llu total commits vs worst static %llu",
                      static_cast<unsigned long long>(total(ad)),
                      static_cast<unsigned long long>(worst));
        out.push_back({name, total(ad) > worst, false, buf});
      }
    }
  }

  // (11) Every KV service point must report populated, ordered latency
  // percentiles for every op kind: samples > 0 (each op has non-zero mix
  // share on every kv point) and p50 <= p99 <= p999 <= max. This is the
  // schema guarantee downstream dashboards key on.
  {
    const char* name = "kv-latency-percentiles-ordered";
    int kv_points = 0;
    bool ok = true;
    std::string detail;
    for (const auto& rec : result.points) {
      if (rec.def.kind() != PointKind::kKv) continue;
      ++kv_points;
      const auto& lat = rec.metrics.latency;
      if (lat.size() != static_cast<std::size_t>(service::kKvOpKinds)) {
        ok = false;
        detail = rec.def.id + " reports " + std::to_string(lat.size()) +
                 " latency series (want " +
                 std::to_string(service::kKvOpKinds) + ")";
        break;
      }
      for (const auto& ol : lat) {
        if (ol.samples == 0 || ol.p50_cycles > ol.p99_cycles ||
            ol.p99_cycles > ol.p999_cycles ||
            ol.p999_cycles > ol.max_cycles) {
          ok = false;
          detail = rec.def.id + " op " + ol.op +
                   ": percentiles missing or unordered";
          break;
        }
      }
      if (!ok) break;
    }
    if (kv_points == 0) {
      out.push_back(skipped(name, "no kv points in this tier"));
    } else {
      if (ok) {
        detail = std::to_string(kv_points) +
                 " kv point(s): all op latencies populated and ordered";
      }
      out.push_back({name, ok, false, detail});
    }
  }

  // (12) The hot-shard point (zipf theta 1.2, write-heavy) concentrates
  // enough conflicting traffic on one shard's lock that plain HLE exhibits
  // the avalanche there — the service-scale rendition of Fig 3.3.
  {
    const char* name = "kv-hot-shard-avalanche-detected";
    const auto* p = point("kv-sh8-k8192-z120-u50-t8-hle");
    if (p == nullptr) {
      out.push_back(skipped(name, "required point not in this tier"));
    } else {
      const bool ok = p->metrics.avalanche_episodes >= 1;
      std::snprintf(buf, sizeof buf, "%llu avalanche episodes (want >= 1)",
                    static_cast<unsigned long long>(
                        p->metrics.avalanche_episodes));
      out.push_back({name, ok, false, buf});
    }
  }

  // (13) The KV service actually elides: under the moderate-skew service
  // mix the per-shard locks are mostly uncontended, so the HLE point must
  // run overwhelmingly speculatively while the standard point never does.
  {
    const char* name = "kv-service-elides";
    const auto* hle = point("kv-sh8-k8192-z99-u30-t8-hle");
    const auto* std_ = point("kv-sh8-k8192-z99-u30-t8-standard");
    if (hle == nullptr || std_ == nullptr) {
      out.push_back(skipped(name, "required points not in this tier"));
    } else {
      const bool ok = hle->metrics.spec_fraction >= 0.5 &&
                      std_->metrics.spec_fraction == 0.0;
      std::snprintf(buf, sizeof buf,
                    "hle spec fraction %.4f (want >= 0.5), standard %.4f "
                    "(want 0)",
                    hle->metrics.spec_fraction, std_->metrics.spec_fraction);
      out.push_back({name, ok, false, buf});
    }
  }

  // (14) The machine-scale fig5.1 points still elide at 128 and 256
  // simulated threads: transactions commit and most ops run speculatively.
  {
    const char* name = "machine-scale-points-elide";
    const auto* m64 = point("rb-s64-u20-t128-ttas-hle-scm-m64x2");
    const auto* m128 = point("rb-s64-u20-t256-ttas-hle-scm-m128x2");
    if (m64 == nullptr || m128 == nullptr) {
      out.push_back(skipped(name, "required points not in this tier"));
    } else {
      auto elides = [](const PointRecord* p) {
        return p->metrics.tx_commits > 0 && p->metrics.spec_fraction > 0.5;
      };
      std::snprintf(buf, sizeof buf,
                    "spec fraction %.4f / %.4f with %llu / %llu commits "
                    "(want > 0.5 and > 0)",
                    m64->metrics.spec_fraction, m128->metrics.spec_fraction,
                    static_cast<unsigned long long>(m64->metrics.tx_commits),
                    static_cast<unsigned long long>(m128->metrics.tx_commits));
      out.push_back({name, elides(m64) && elides(m128), false, buf});
    }
  }

  return out;
}

}  // namespace elision::harness

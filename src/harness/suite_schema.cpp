// The bench-suite results schema: one field table per JSON object — per
// workload kind, the keys every point starts with, the per-point "metrics"
// (whose gated rows also carry the gate's rule) and the run metadata. Each
// row names a key once — its member, its printed form, when it is written
// and, for point fields, the bench_suite --list column it fills — and that
// row drives JSON writing, strict parsing, the --list table and the gate.
// Adding a field or a gated metric is one row.
#include <cmath>
#include <concepts>
#include <functional>
#include <limits>

#include "harness/suite.hpp"

namespace elision::harness {

const char* point_kind_name(PointKind k) {
  switch (k) {
    case PointKind::kRb: return "rb";
    case PointKind::kMicro: return "micro";
    case PointKind::kBtree: return "btree";
    case PointKind::kPhase: return "phase";
    case PointKind::kKv: return "kv";
  }
  return "?";
}

namespace {

using support::json::Value;

// ---- value codecs: JSON text out, strict parse in ----

void put_string(std::string& o, std::string_view s) {
  o += '"';
  o += support::json::escape(s);
  o += '"';
}

void put(std::string& o, bool v) { o += v ? "true" : "false"; }
void put(std::string& o, std::integral auto v) { o += std::to_string(v); }
// %g, or `decimals` fixed digits when decimals >= 0.
void put(std::string& o, double v, int decimals = -1) {
  char buf[400];  // %.*f of the largest double: 309 digits and the decimals
  std::snprintf(buf, sizeof buf, decimals < 0 ? "%.*g" : "%.*f",
                decimals < 0 ? 6 : decimals, v);
  o += buf;
}
void put(std::string& o, const std::string& v) { put_string(o, v); }
void put(std::string& o, SuiteTier v) { put_string(o, suite_tier_name(v)); }
void put(std::string& o, const std::vector<std::uint64_t>& v) {
  o += '[';
  for (const auto n : v) o += std::to_string(n) + ',';
  if (o.back() == ',') o.pop_back();
  o += ']';
}
void put(std::string& o, const PointWorkload& v) {
  put_string(o, point_kind_name(static_cast<PointKind>(v.index())));
}
void put(std::string& o, const locks::ElisionPolicy& v) {
  put_string(o, v.spec());
}
void put(std::string& o, LockSel v) { put_string(o, lock_sel_name(v)); }
void put(std::string& o, SharedLockSel v) {
  put_string(o, shared_lock_sel_name(v));
}

bool get(const Value& v, bool& out) {
  if (!v.is_bool()) return false;
  out = v.as_bool();
  return true;
}
// Non-negative integers only: every integral point field is a count, a
// percentage or a seed.
template <std::integral T>
bool get(const Value& v, T& out) {
  const double d = v.as_double(-1.0);
  if (!v.is_number() || d < 0 || d > 0x1p53 || d != std::floor(d)) {
    return false;
  }
  const auto u = static_cast<std::uint64_t>(d);
  if (u > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  out = static_cast<T>(u);
  return true;
}
bool get(const Value& v, double& out) {
  if (!v.is_number()) return false;
  out = v.as_double();
  return true;
}
bool get(const Value& v, std::string& out) {
  if (!v.is_string()) return false;
  out = v.as_string();
  return true;
}
bool get(const Value& v, std::vector<std::uint64_t>& out) {
  if (!v.is_array()) return false;
  out.clear();
  for (const Value& item : v.items()) {
    if (!get(item, out.emplace_back())) return false;
  }
  return true;
}
// Default-constructs the workload alternative whose kind `v` names.
template <std::size_t I = 0>
bool get(const Value& v, PointWorkload& out) {
  if constexpr (I < std::variant_size_v<PointWorkload>) {
    if (v.is_string() &&
        v.as_string() == point_kind_name(static_cast<PointKind>(I))) {
      out.emplace<I>();
      return true;
    }
    return get<I + 1>(v, out);
  } else {
    return false;
  }
}
bool get(const Value& v, locks::ElisionPolicy& out) {
  const auto p = v.is_string() ? locks::ElisionPolicy::parse(v.as_string())
                               : std::nullopt;
  if (!p) return false;
  out = *p;
  return true;
}
template <typename E, std::size_t N>
bool get_named(const Value& v, E& out, const E (&all)[N],
               const char* (*name)(E)) {
  for (const E e : all) {
    if (v.is_string() && v.as_string() == name(e)) {
      out = e;
      return true;
    }
  }
  return false;
}
bool get(const Value& v, LockSel& out) {
  return get_named(v, out, kAllLockSels, lock_sel_name);
}
bool get(const Value& v, SharedLockSel& out) {
  constexpr SharedLockSel kAll[] = {SharedLockSel::kSharedTtas,
                                    SharedLockSel::kSharedMcs};
  return get_named(v, out, kAll, shared_lock_sel_name);
}
bool get(const Value& v, SuiteTier& out) {
  constexpr SuiteTier kAll[] = {SuiteTier::kSmoke, SuiteTier::kFull};
  return get_named(v, out, kAll, suite_tier_name);
}

// ---- field tables ----

// When a field is written, and whether a document may lack it.
enum class Presence {
  kRequired,  // always written; a document without it is rejected
  kOptional,  // always written; absent keeps the default (older documents)
  kWhenSet,   // written only when it differs from a default-constructed S,
              // so adding one changes no existing document; may be absent
};

// One key of a JSON object, read from and written to an S.
template <typename S>
struct Field {
  const char* key;
  Presence presence = Presence::kOptional;
  const char* column = nullptr;  // bench_suite --list column, or nullptr
  std::function<void(const S&, std::string&)> put;
  std::function<bool(const Value&, S&)> get;
  std::optional<GatedMetric> gate = {};  // metrics rows the gate compares
};

// The field's JSON text, or nullopt when it is not written.
template <typename S>
std::optional<std::string> written(const Field<S>& f, const S& s) {
  static const S kDefault{};
  std::string text, dflt;
  f.put(s, text);
  if (f.presence != Presence::kWhenSet) return text;
  f.put(kDefault, dflt);
  return text != dflt ? std::optional(text) : std::nullopt;
}

// Appends `"key":value` and then `end` for every written field.
template <typename S>
void put_members(const std::vector<Field<S>>& fields, const S& s,
                 std::string& o, std::string_view end) {
  for (const auto& f : fields) {
    if (const auto text = written(f, s)) {
      o += '"' + std::string(f.key) + "\":" + *text + std::string(end);
    }
  }
}

template <typename S>
void put_object(const std::vector<Field<S>>& fields, const S& s,
                std::string& o) {
  o += '{';
  put_members(fields, s, o, ",");
  if (o.back() == ',') o.pop_back();
  o += '}';
}

// Reads every field present in `obj`. Rejects a non-object, a present value
// that does not parse and an absent kRequired field (which must not read as
// a default the gate then skips).
template <typename S>
bool get_object(const std::vector<Field<S>>& fields, const Value& obj,
                S& s) {
  if (!obj.is_object()) return false;
  for (const auto& f : fields) {
    const Value* v = obj.find(f.key);
    if (v == nullptr ? f.presence == Presence::kRequired : !f.get(*v, s)) {
      return false;
    }
  }
  return true;
}

template <typename S, typename T>
Field<S> field(const char* key, T S::*m, const char* column = nullptr) {
  return {key, Presence::kOptional, column,
          [m](const S& s, std::string& o) { put(o, s.*m); },
          [m](const Value& v, S& s) { return get(v, s.*m); }};
}

// A double printed with `decimals` fixed digits.
template <typename S>
Field<S> field(const char* key, double S::*m, int decimals) {
  Field<S> f = field(key, m);
  f.put = [=](const S& s, std::string& o) { put(o, s.*m, decimals); };
  return f;
}

// field() rows that are required, or written only when set.
template <typename... A>
auto need(A... a) {
  auto f = field(a...);
  f.presence = Presence::kRequired;
  return f;
}
template <typename... A>
auto when_set(A... a) {
  auto f = field(a...);
  f.presence = Presence::kWhenSet;
  return f;
}

// A key with one legal value. Micro points carry the rb-shaped keys the
// committed baseline's canary lines already hold.
template <typename S, typename T>
Field<S> fixed(const char* key, T value, const char* column = nullptr,
               Presence presence = Presence::kOptional) {
  return {key, presence, column,
          [value](const S&, std::string& o) { put(o, value); },
          [value](const Value& v, S&) {
            T got = value;
            std::string a, b;
            if (!get(v, got)) return false;
            put(a, got);
            put(b, value);
            return a == b;
          }};
}

// A nested object whose keys are `fields` of the same S.
template <typename S>
Field<S> group(const char* key, Presence presence,
               std::vector<Field<S>> fields) {
  return {key, presence, nullptr,
          [=](const S& s, std::string& o) { put_object(fields, s, o); },
          [=](const Value& v, S& s) { return get_object(fields, v, s); }};
}

template <typename P>
struct Kind {
  std::vector<Field<P>> fields;
  std::string (*id)(const P&);
};

// Big-machine points name their shape: -m<cores>x<smt>.
std::string machine_suffix(unsigned n_cores, unsigned smt_per_core) {
  if (n_cores == 0) return "";
  return "-m" + std::to_string(n_cores) + "x" + std::to_string(smt_per_core);
}

using std::to_string;

template <typename P>
const Kind<P>& schema();

template <>
const Kind<RbPoint>& schema() {
  using P = RbPoint;
  static const Kind<P> k{
      {field("lock", &P::lock, "lock"),
       field("scheme", &P::scheme, "scheme"),
       field("size", &P::size, "size"),
       field("update_pct", &P::update_pct, "upd%"),
       field("threads", &P::threads, "thr"),
       field("seeds", &P::seeds, "seeds"),
       field("duration_sec", &P::duration_sec),
       field("seed", &P::seed),
       field("telemetry", &P::telemetry),
       when_set("n_cores", &P::n_cores),
       when_set("smt_per_core", &P::smt_per_core),
       when_set("yield_slack_cycles", &P::yield_slack_cycles)},
      [](const P& p) {
        return "rb-s" + to_string(p.size) + "-u" + to_string(p.update_pct) +
               "-t" + to_string(p.threads) + "-" +
               lock_sel_slug(p.lock) + "-" + p.scheme.spec() +
               machine_suffix(p.n_cores, p.smt_per_core);
      }};
  return k;
}

template <>
const Kind<MicroPoint>& schema() {
  using P = MicroPoint;
  static const Kind<P> k{
      {fixed<P>("lock", LockSel::kTtas, "lock"),
       fixed<P>("scheme", locks::ElisionPolicy::standard(), "scheme"),
       field("size", &P::array_words, "size"),
       fixed<P>("update_pct", 0, "upd%"),
       field("threads", &P::threads, "thr"),
       fixed<P>("seeds", 1, "seeds"),
       fixed<P>("duration_sec", 0.0),
       field("seed", &P::seed),
       fixed<P>("telemetry", false),
       when_set("n_cores", &P::n_cores),
       when_set("smt_per_core", &P::smt_per_core),
       when_set("yield_slack_cycles", &P::yield_slack_cycles),
       when_set("micro_ops", &P::ops_per_thread),
       when_set("micro_shared_period", &P::shared_period)},
      [](const P& p) { return "micro-engine-rtm-t" + to_string(p.threads); }};
  return k;
}

template <>
const Kind<BtPoint>& schema() {
  using P = BtPoint;
  static const Kind<P> k{
      {field("lock", &P::lock, "lock"),
       field("scheme", &P::policy, "scheme"),
       field("size", &P::size, "size"),
       field("update_pct", &P::update_pct, "upd%"),
       field("scan_pct", &P::scan_pct),
       field("scan_len", &P::scan_len),
       field("threads", &P::threads, "thr"),
       field("seeds", &P::seeds, "seeds"),
       field("duration_sec", &P::duration_sec),
       field("seed", &P::seed),
       field("telemetry", &P::telemetry)},
      [](const P& p) {
        return "bt-s" + to_string(p.size) + "-u" + to_string(p.update_pct) +
               "-c" + to_string(p.scan_pct) + "-l" + to_string(p.scan_len) +
               "-t" + to_string(p.threads) + "-" +
               shared_lock_sel_name(p.lock) + "-" + p.policy.spec();
      }};
  return k;
}

template <>
const Kind<PhasePoint>& schema() {
  using P = PhasePoint;
  static const Kind<P> k{
      {field("lock", &P::lock, "lock"),
       field("scheme", &P::scheme, "scheme"),
       field("size", &P::size, "size"),
       field("calm_update_pct", &P::calm_update_pct, "upd%"),
       field("storm_update_pct", &P::storm_update_pct, "upd%"),
       field("threads", &P::threads, "thr"),
       field("seeds", &P::seeds, "seeds"),
       field("phase_sec", &P::phase_sec),
       field("seed", &P::seed),
       field("telemetry", &P::telemetry)},
      [](const P& p) {
        return "ph-s" + to_string(p.size) + "-u" +
               to_string(p.calm_update_pct) + "-" +
               to_string(p.storm_update_pct) + "-t" + to_string(p.threads) +
               "-" + lock_sel_slug(p.lock) + "-" + p.scheme.spec();
      }};
  return k;
}

template <>
const Kind<service::KvPoint>& schema() {
  using P = service::KvPoint;
  static const Kind<P> k{
      {field("scheme", &P::policy, "scheme"),
       field("shards", &P::shards),
       field("keys", &P::keys, "size"),
       field("clients", &P::clients),
       field("client_rate_hz", &P::client_rate_hz),
       field("zipf_theta", &P::zipf_theta),
       field("put_pct", &P::put_pct, "upd%"),
       field("multi_put_pct", &P::multi_put_pct, "upd%"),
       field("transfer_pct", &P::transfer_pct, "upd%"),
       field("multi_put_keys", &P::multi_put_keys),
       field("threads", &P::threads, "thr"),
       field("seeds", &P::seeds, "seeds"),
       field("duration_sec", &P::duration_sec),
       field("seed", &P::seed),
       field("telemetry", &P::telemetry)},
      // z = zipf theta x100; u = the mutating share of the mix.
      [](const P& p) {
        return "kv-sh" + to_string(p.shards) + "-k" + to_string(p.keys) +
               "-z" + to_string(static_cast<int>(p.zipf_theta * 100 + 0.5)) +
               "-u" + to_string(p.put_pct + p.multi_put_pct + p.transfer_pct) +
               "-t" + to_string(p.threads) + "-" + p.policy.spec();
      }};
  return k;
}

// Calls fn(key, column, JSON text) for every field row of the point's kind.
template <typename Fn>
void for_fields(const SuitePoint& sp, Fn&& fn) {
  std::visit(
      [&](const auto& p) {
        for (const auto& f : schema<std::decay_t<decltype(p)>>().fields) {
          std::string text;
          f.put(p, text);
          fn(f.key, f.column, text);
        }
      },
      sp.workload);
}

std::string unquoted(const std::string& text) {
  if (text.size() >= 2 && text.front() == '"') {
    return text.substr(1, text.size() - 2);
  }
  return text;
}

// The keys every point starts with; "kind" picks the field table of the
// rest.
const std::vector<Field<SuitePoint>>& point_fields() {
  using P = SuitePoint;
  static const std::vector<Field<P>> k{
      need("id", &P::id), field("tier", &P::tier), field("figure", &P::figure),
      field("kind", &P::workload)};
  return k;
}

// The point's definition: its point_fields() and its kind's always-written
// fields, and (on a second line, only if any is set) its override fields.
std::string point_json(const SuitePoint& sp) {
  std::string o = "    {", overrides;
  put_members(point_fields(), sp, o, ",");
  std::visit(
      [&](const auto& p) {
        for (const auto& f : schema<std::decay_t<decltype(p)>>().fields) {
          if (const auto text = written(f, p)) {
            (f.presence == Presence::kWhenSet ? overrides : o) +=
                '"' + std::string(f.key) + "\":" + *text + ',';
          }
        }
      },
      sp.workload);
  o += '\n';
  if (!overrides.empty()) o += "     " + overrides + '\n';
  return o;
}

// Reads a point definition. Absent keys keep their defaults (documents
// written before a field existed still parse); a present key whose value
// does not parse — an unknown kind, lock, scheme or tier — rejects the
// whole document.
bool parse_point(const Value& p, SuitePoint& sp) {
  return get_object(point_fields(), p, sp) &&
         std::visit(
             [&](auto& w) {
               return get_object(schema<std::decay_t<decltype(w)>>().fields,
                                 p, w);
             },
             sp.workload);
}

// ---- the per-point "metrics" object ----

// A gated metric: required, printed with `decimals` fixed digits, and
// compared with the baseline under the row's rule.
Field<PointMetrics> gated(const GatedMetric& g, int decimals) {
  Field<PointMetrics> f = need(g.key, g.value, decimals);
  f.gate = g;
  return f;
}

// "aborts_by_cause": one count per tsx::AbortCause, keyed by its name.
Field<PointMetrics> aborts_by_cause() {
  using M = PointMetrics;
  constexpr auto kCauses =
      static_cast<std::size_t>(tsx::AbortCause::kCauseCount);
  std::vector<Field<M>> causes;
  for (std::size_t c = 0; c < kCauses; ++c) {
    causes.push_back(
        {tsx::to_string(static_cast<tsx::AbortCause>(c)), Presence::kRequired,
         nullptr,
         [c](const M& m, std::string& o) {
           put(o, c < m.aborts_by_cause.size() ? m.aborts_by_cause[c] : 0);
         },
         [c](const Value& v, M& m) {
           m.aborts_by_cause.resize(kCauses);
           return get(v, m.aborts_by_cause[c]);
         }});
  }
  return group<M>("aborts_by_cause", Presence::kRequired, causes);
}

// "latency": one object of percentiles per op kind, keyed by the op.
Field<PointMetrics> latency() {
  using M = PointMetrics;
  using L = M::OpLatencySummary;
  static const std::vector<Field<L>> k{
      need("samples", &L::samples), need("p50_cycles", &L::p50_cycles),
      need("p99_cycles", &L::p99_cycles), need("p999_cycles", &L::p999_cycles),
      need("max_cycles", &L::max_cycles)};
  return {"latency", Presence::kWhenSet, nullptr,
          [](const M& m, std::string& o) {
            o += '{';
            for (const L& l : m.latency) {
              put_string(o, l.op);
              o += ':';
              put_object(k, l, o);
              o += ',';
            }
            if (o.back() == ',') o.pop_back();
            o += '}';
          },
          [](const Value& v, M& m) {
            for (const auto& s : v.members()) {
              m.latency.emplace_back().op = s.key;
              if (!get_object(k, s.value, m.latency.back())) return false;
            }
            return v.is_object();
          }};
}

// Every key of a point's "metrics" object, in written order. The gate reads
// its rules from the gated rows (gated_metrics()).
const std::vector<Field<PointMetrics>>& metrics_fields() {
  using M = PointMetrics;
  static const std::vector<Field<M>> k{
      gated({.key = "throughput_ops_per_sec",
             .value = &M::throughput_ops_per_sec, .tol = 0.10,
             .relative = true, .higher_is_better = true,
             .reports_improvement = true}, 3),
      need("spec_fraction", &M::spec_fraction, 6),
      gated({.key = "nonspec_fraction", .value = &M::nonspec_fraction,
             .tol = 0.08, .relative = false, .higher_is_better = false,
             .reports_improvement = true}, 6),
      gated({.key = "attempts_per_op", .value = &M::attempts_per_op,
             .tol = 0.15, .relative = true, .higher_is_better = false,
             .reports_improvement = true}, 6),
      need("ops", &M::ops),
      need("attempts", &M::attempts),
      need("elapsed_cycles", &M::elapsed_cycles),
      group<M>("tx", Presence::kRequired,
               {need("begins", &M::tx_begins), need("commits", &M::tx_commits),
                need("aborts", &M::tx_aborts)}),
      aborts_by_cause(),
      need("avalanche_episodes", &M::avalanche_episodes),
      need("avalanche_victims", &M::avalanche_victims),
      when_set("phase_ops", &M::phase_ops),
      latency(),
      group<M>("fastpath", Presence::kWhenSet,
               {need("owned_hits", &M::fp_owned_hits),
                need("probe_skips", &M::fp_probe_skips),
                need("bound_recomputes", &M::fp_bound_recomputes)}),
      // Host speed varies across machines far more than virtual-time
      // metrics do; same-host gating passes a tight --tol-simops.
      gated({.key = "sim_ops_per_sec", .value = &M::sim_ops_per_sec,
             .tol = 0.75, .relative = true, .higher_is_better = true,
             .reports_improvement = false, .host_speed = true}, 3),
      need("wall_ms", &M::wall_ms, 3)};
  return k;
}

// ---- the results document around the points ----

// Run metadata is optional key by key (older documents lack some host
// fields), but a key that is present must have the writer's type: a
// corrupted scale or machine shape must not read as a default the gate's
// scale and machine checks then accept.
const std::vector<Field<SuiteResult>>& header_fields() {
  using R = SuiteResult;
  static const std::vector<Field<R>> k{
      fixed<R>("schema_version", kSuiteSchemaVersion, nullptr,
               Presence::kRequired),
      fixed<R>("suite", std::string("elision-bench")),
      field("tier", &R::tier),
      group<R>("run", Presence::kOptional,
               {field("duration_scale", &R::duration_scale),
                group<R>("machine", Presence::kOptional,
                         {field("n_cores", &R::n_cores),
                          field("smt_per_core", &R::smt_per_core),
                          field("ghz", &R::ghz)}),
                group<R>("host", Presence::kOptional,
                         {field("cores", &R::host_cores),
                          field("jobs", &R::jobs),
                          field("host_threads", &R::host_threads),
                          field("total_wall_ms", &R::total_wall_ms, 3)})})};
  return k;
}

}  // namespace

std::string point_id(const PointWorkload& w) {
  return std::visit(
      [](const auto& p) { return schema<std::decay_t<decltype(p)>>().id(p); },
      w);
}

std::string point_column(const SuitePoint& sp, std::string_view column) {
  std::string out;
  for_fields(sp, [&](const char*, const char* col, const std::string& text) {
    if (col == nullptr || column != col) return;
    if (!out.empty()) out += '/';
    out += unquoted(text);
  });
  return out.empty() ? "-" : out;
}

bool point_telemetry(const SuitePoint& sp) {
  bool on = false;
  for_fields(sp, [&](const char* key, const char*, const std::string& text) {
    if (std::string_view(key) == "telemetry") on = text == "true";
  });
  return on;
}

std::vector<GatedMetric> gated_metrics() {
  std::vector<GatedMetric> out;
  for (const auto& f : metrics_fields()) {
    if (f.gate) out.push_back(*f.gate);
  }
  return out;
}

// ---- canonical JSON results ----

void write_results_json(const SuiteResult& result, std::FILE* out) {
  std::string o = "{\n  ";
  put_members(header_fields(), result, o, ",\n  ");
  o += "\"points\":[\n";
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    o += point_json(result.points[i].def);
    o += "     \"metrics\":";
    put_object(metrics_fields(), result.points[i].metrics, o);
    o += i + 1 < result.points.size() ? "},\n" : "}\n";
  }
  o += "  ]\n}\n";
  std::fputs(o.c_str(), out);
}

std::optional<SuiteResult> parse_results_json(const Value& doc) {
  SuiteResult out;
  if (!get_object(header_fields(), doc, out)) return std::nullopt;
  const Value* points = doc.find("points");
  if (points == nullptr || !points->is_array()) return std::nullopt;
  for (const Value& p : points->items()) {
    PointRecord& rec = out.points.emplace_back();
    const Value* metrics = p.find("metrics");
    if (!parse_point(p, rec.def) || metrics == nullptr ||
        !get_object(metrics_fields(), *metrics, rec.metrics)) {
      return std::nullopt;
    }
  }
  return out;
}

std::optional<SuiteResult> load_results_file(const std::string& path) {
  const auto doc = support::json::parse_file(path.c_str());
  if (!doc) return std::nullopt;
  return parse_results_json(*doc);
}

}  // namespace elision::harness

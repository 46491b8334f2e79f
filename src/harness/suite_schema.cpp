// The bench-suite point schema: one field table per workload kind. Each
// table row names a point field once — its JSON key, its member, whether it
// is always emitted or only when it differs from the kind's default, and
// the bench_suite --list column it fills — and that one row drives JSON
// writing, JSON parsing, the gate's telemetry lookup and the --list table.
// Adding a point field is one row. The results document around the points
// (run metadata, per-point metrics) is written and parsed here too.
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
void put(std::string& o, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  o += buf;
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

// ---- field tables ----

template <typename P>
struct Field {
  const char* key;
  // false: always emitted on the point's first line. true: emitted on the
  // overrides line, and only when it differs from a default-constructed P
  // (so adding such a field leaves every existing results line unchanged).
  bool when_set;
  const char* column;  // bench_suite --list column, or nullptr
  std::function<void(const P&, std::string&)> put;
  std::function<bool(const Value&, P&)> get;
};

template <typename P, typename T>
Field<P> field(const char* key, T P::*m, const char* column = nullptr) {
  return {key, false, column,
          [m](const P& p, std::string& o) { put(o, p.*m); },
          [m](const Value& v, P& p) { return get(v, p.*m); }};
}

template <typename P, typename T>
Field<P> when_set(const char* key, T P::*m) {
  Field<P> f = field(key, m);
  f.when_set = true;
  return f;
}

// A key with one legal value. Micro points carry the rb-shaped keys the
// committed baseline's canary lines already hold.
template <typename P, typename T>
Field<P> fixed(const char* key, T value, const char* column = nullptr) {
  return {key, false, column,
          [value](const P&, std::string& o) { put(o, value); },
          [value](const Value& v, P&) {
            T got = value;
            std::string a, b;
            if (!get(v, got)) return false;
            put(a, got);
            put(b, value);
            return a == b;
          }};
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

// The point's definition: id/tier/figure/kind, its kind's always-emitted
// fields, and (on a second line, only if any is set) its override fields.
std::string point_json(const SuitePoint& sp) {
  std::string o = "    {\"id\":";
  put_string(o, sp.id);
  o += ",\"tier\":";
  put_string(o, suite_tier_name(sp.tier));
  o += ",\"figure\":";
  put_string(o, sp.figure);
  o += ",\"kind\":";
  put_string(o, point_kind_name(sp.kind()));
  o += ',';
  std::string overrides;
  std::visit(
      [&](const auto& p) {
        using P = std::decay_t<decltype(p)>;
        static const P kDefault{};
        for (const auto& f : schema<P>().fields) {
          std::string text;
          f.put(p, text);
          if (f.when_set) {
            std::string dflt;
            f.put(kDefault, dflt);
            if (text == dflt) continue;
          }
          std::string& line = f.when_set ? overrides : o;
          line += '"';
          line += f.key;
          line += "\":" + text + ',';
        }
      },
      sp.workload);
  o += '\n';
  if (!overrides.empty()) o += "     " + overrides + '\n';
  return o;
}

// Default-constructs the workload alternative named `kind`.
template <std::size_t I = 0>
std::optional<PointWorkload> workload_of_kind(const std::string& kind) {
  if constexpr (I < std::variant_size_v<PointWorkload>) {
    if (kind == point_kind_name(static_cast<PointKind>(I))) {
      return PointWorkload(std::in_place_index<I>);
    }
    return workload_of_kind<I + 1>(kind);
  } else {
    return std::nullopt;
  }
}

// Reads a point definition. Absent keys keep their defaults (documents
// written before a field existed still parse); a present key whose value
// does not parse — an unknown kind, lock, scheme or tier — rejects the
// whole document.
std::optional<SuitePoint> parse_point(const Value& p) {
  SuitePoint sp;
  const Value* id = p.find("id");
  if (id == nullptr || !id->is_string()) return std::nullopt;
  sp.id = id->as_string();
  if (const Value* v = p.find("tier")) {
    const auto t = suite_tier_from_name(v->as_string());
    if (!v->is_string() || !t) return std::nullopt;
    sp.tier = *t;
  }
  if (const Value* v = p.find("figure")) {
    if (!v->is_string()) return std::nullopt;
    sp.figure = v->as_string();
  }
  if (const Value* v = p.find("kind")) {
    auto w = v->is_string() ? workload_of_kind(v->as_string()) : std::nullopt;
    if (!w) return std::nullopt;
    sp.workload = std::move(*w);
  }
  const bool ok = std::visit(
      [&](auto& w) {
        for (const auto& f : schema<std::decay_t<decltype(w)>>().fields) {
          const Value* v = p.find(f.key);
          if (v != nullptr && !f.get(*v, w)) return false;
        }
        return true;
      },
      sp.workload);
  if (!ok) return std::nullopt;
  return sp;
}

void write_metrics_json(const PointMetrics& m, std::FILE* out) {
  std::fprintf(
      out,
      "     \"metrics\":{\"throughput_ops_per_sec\":%.3f,"
      "\"spec_fraction\":%.6f,\"nonspec_fraction\":%.6f,"
      "\"attempts_per_op\":%.6f,\"ops\":%llu,\"attempts\":%llu,"
      "\"elapsed_cycles\":%llu,\"tx\":{\"begins\":%llu,\"commits\":%llu,"
      "\"aborts\":%llu},",
      m.throughput_ops_per_sec, m.spec_fraction, m.nonspec_fraction,
      m.attempts_per_op, static_cast<unsigned long long>(m.ops),
      static_cast<unsigned long long>(m.attempts),
      static_cast<unsigned long long>(m.elapsed_cycles),
      static_cast<unsigned long long>(m.tx_begins),
      static_cast<unsigned long long>(m.tx_commits),
      static_cast<unsigned long long>(m.tx_aborts));
  std::fprintf(out, "\"aborts_by_cause\":{");
  for (std::size_t c = 0; c < m.aborts_by_cause.size(); ++c) {
    std::fprintf(out, "%s\"%s\":%llu", c == 0 ? "" : ",",
                 tsx::to_string(static_cast<tsx::AbortCause>(c)),
                 static_cast<unsigned long long>(m.aborts_by_cause[c]));
  }
  std::fprintf(out,
               "},\"avalanche_episodes\":%llu,\"avalanche_victims\":%llu,",
               static_cast<unsigned long long>(m.avalanche_episodes),
               static_cast<unsigned long long>(m.avalanche_victims));
  if (!m.phase_ops.empty()) {
    std::fprintf(out, "\"phase_ops\":[");
    for (std::size_t p = 0; p < m.phase_ops.size(); ++p) {
      std::fprintf(out, "%s%llu", p == 0 ? "" : ",",
                   static_cast<unsigned long long>(m.phase_ops[p]));
    }
    std::fprintf(out, "],");
  }
  if (!m.latency.empty()) {
    std::fprintf(out, "\"latency\":{");
    for (std::size_t l = 0; l < m.latency.size(); ++l) {
      const auto& ol = m.latency[l];
      std::fprintf(out,
                   "%s\"%s\":{\"samples\":%llu,\"p50_cycles\":%llu,"
                   "\"p99_cycles\":%llu,\"p999_cycles\":%llu,"
                   "\"max_cycles\":%llu}",
                   l == 0 ? "" : ",", support::json::escape(ol.op).c_str(),
                   static_cast<unsigned long long>(ol.samples),
                   static_cast<unsigned long long>(ol.p50_cycles),
                   static_cast<unsigned long long>(ol.p99_cycles),
                   static_cast<unsigned long long>(ol.p999_cycles),
                   static_cast<unsigned long long>(ol.max_cycles));
    }
    std::fprintf(out, "},");
  }
  if (m.fp_owned_hits != 0 || m.fp_probe_skips != 0 ||
      m.fp_bound_recomputes != 0) {
    // Optional: points run with the fast path disabled (ELISION_FASTPATH=0)
    // produce all-zero counters and stay byte-identical to the pre-fastpath
    // schema.
    std::fprintf(out,
                 "\"fastpath\":{\"owned_hits\":%llu,\"probe_skips\":%llu,"
                 "\"bound_recomputes\":%llu},",
                 static_cast<unsigned long long>(m.fp_owned_hits),
                 static_cast<unsigned long long>(m.fp_probe_skips),
                 static_cast<unsigned long long>(m.fp_bound_recomputes));
  }
  std::fprintf(out, "\"sim_ops_per_sec\":%.3f,\"wall_ms\":%.3f}}",
               m.sim_ops_per_sec, m.wall_ms);
}

// Strict: every key write_metrics_json always writes must be present with
// the right type, or the document is rejected (a missing key must not read
// as a zero the gate then skips). phase_ops, latency and fastpath are
// optional, but well-formed when present.
std::optional<PointMetrics> parse_metrics(const Value& metrics) {
  PointMetrics m;
  bool ok = true;
  auto need = [&ok](const Value* obj, const char* key, auto& out) {
    const Value* v = obj != nullptr ? obj->find(key) : nullptr;
    ok = ok && v != nullptr && get(*v, out);
  };
  need(&metrics, "throughput_ops_per_sec", m.throughput_ops_per_sec);
  need(&metrics, "spec_fraction", m.spec_fraction);
  need(&metrics, "nonspec_fraction", m.nonspec_fraction);
  need(&metrics, "attempts_per_op", m.attempts_per_op);
  need(&metrics, "ops", m.ops);
  need(&metrics, "attempts", m.attempts);
  need(&metrics, "elapsed_cycles", m.elapsed_cycles);
  const Value* tx = metrics.find("tx");
  need(tx, "begins", m.tx_begins);
  need(tx, "commits", m.tx_commits);
  need(tx, "aborts", m.tx_aborts);
  const Value* causes = metrics.find("aborts_by_cause");
  m.aborts_by_cause.resize(
      static_cast<std::size_t>(tsx::AbortCause::kCauseCount));
  for (std::size_t c = 0; c < m.aborts_by_cause.size(); ++c) {
    need(causes, tsx::to_string(static_cast<tsx::AbortCause>(c)),
         m.aborts_by_cause[c]);
  }
  need(&metrics, "avalanche_episodes", m.avalanche_episodes);
  need(&metrics, "avalanche_victims", m.avalanche_victims);
  if (const Value* v = metrics.find("phase_ops")) {
    ok = ok && v->is_array();
    for (const Value& item : v->items()) {
      ok = ok && get(item, m.phase_ops.emplace_back());
    }
  }
  if (const Value* lat = metrics.find("latency")) {
    ok = ok && lat->is_object();
    for (const auto& s : lat->members()) {
      auto& l = m.latency.emplace_back();
      l.op = s.key;
      need(&s.value, "samples", l.samples);
      need(&s.value, "p50_cycles", l.p50_cycles);
      need(&s.value, "p99_cycles", l.p99_cycles);
      need(&s.value, "p999_cycles", l.p999_cycles);
      need(&s.value, "max_cycles", l.max_cycles);
    }
  }
  if (const Value* fp = metrics.find("fastpath")) {
    need(fp, "owned_hits", m.fp_owned_hits);
    need(fp, "probe_skips", m.fp_probe_skips);
    need(fp, "bound_recomputes", m.fp_bound_recomputes);
  }
  need(&metrics, "sim_ops_per_sec", m.sim_ops_per_sec);
  need(&metrics, "wall_ms", m.wall_ms);
  if (!ok) return std::nullopt;
  return m;
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

// ---- canonical JSON results ----

void write_results_json(const SuiteResult& result, std::FILE* out) {
  std::fprintf(out,
               "{\n  \"schema_version\":%d,\n  \"suite\":\"elision-bench\",\n"
               "  \"tier\":\"%s\",\n  \"run\":{\"duration_scale\":%g,"
               "\"machine\":{\"n_cores\":%u,\"smt_per_core\":%u,"
               "\"ghz\":%g},"
               "\"host\":{\"cores\":%u,\"jobs\":%d,\"host_threads\":%d,"
               "\"total_wall_ms\":%.3f}},\n  \"points\":[\n",
               kSuiteSchemaVersion, suite_tier_name(result.tier),
               result.duration_scale, result.n_cores, result.smt_per_core,
               result.ghz, result.host_cores, result.jobs,
               result.host_threads, result.total_wall_ms);
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    std::fputs(point_json(result.points[i].def).c_str(), out);
    write_metrics_json(result.points[i].metrics, out);
    std::fprintf(out, "%s\n", i + 1 < result.points.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

std::optional<SuiteResult> parse_results_json(const Value& doc) {
  if (!doc.is_object()) return std::nullopt;
  const Value* version = doc.find("schema_version");
  if (version == nullptr ||
      static_cast<int>(version->as_double()) != kSuiteSchemaVersion) {
    return std::nullopt;
  }
  SuiteResult out;
  if (const Value* tier = doc.find("tier")) {
    const auto t = suite_tier_from_name(tier->as_string());
    if (!t) return std::nullopt;
    out.tier = *t;
  }
  // Run metadata is optional key by key (older documents lack some host
  // fields), but a key that is present must have the writer's type: a
  // corrupted scale or machine shape must not read as a default the gate's
  // scale and machine checks then accept.
  bool ok = true;
  auto opt = [&ok](const Value* obj, const char* key, auto& out) {
    const Value* v = obj != nullptr ? obj->find(key) : nullptr;
    ok = ok && (v == nullptr || get(*v, out));
  };
  auto section = [&ok](const Value* obj, const char* key) {
    const Value* v = obj != nullptr ? obj->find(key) : nullptr;
    ok = ok && (v == nullptr || v->is_object());
    return v;
  };
  const Value* run = section(&doc, "run");
  opt(run, "duration_scale", out.duration_scale);
  const Value* machine = section(run, "machine");
  opt(machine, "n_cores", out.n_cores);
  opt(machine, "smt_per_core", out.smt_per_core);
  opt(machine, "ghz", out.ghz);
  const Value* host = section(run, "host");
  opt(host, "cores", out.host_cores);
  opt(host, "jobs", out.jobs);
  opt(host, "host_threads", out.host_threads);
  opt(host, "total_wall_ms", out.total_wall_ms);
  if (!ok) return std::nullopt;
  const Value* points = doc.find("points");
  if (points == nullptr || !points->is_array()) return std::nullopt;
  for (const Value& p : points->items()) {
    const Value* metrics = p.is_object() ? p.find("metrics") : nullptr;
    if (metrics == nullptr || !metrics->is_object()) return std::nullopt;
    auto def = parse_point(p);
    auto m = parse_metrics(*metrics);
    if (!def || !m) return std::nullopt;
    out.points.push_back({std::move(*def), std::move(*m)});
  }
  return out;
}

std::optional<SuiteResult> load_results_file(const std::string& path) {
  const auto doc = support::json::parse_file(path.c_str());
  if (!doc) return std::nullopt;
  return parse_results_json(*doc);
}

}  // namespace elision::harness

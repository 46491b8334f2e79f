// ElisionPolicy: the unified front-end for choosing how a critical section
// executes.
//
// Historically every call site switched on the Scheme enum and constructed
// per-case ScmParams/SlrParams by hand. ElisionPolicy is one value type that
// carries the scheme *and* every tuning knob (retry/backoff, SCM retries,
// SLR attempts, grouped-SCM groups), with named constructors for the six
// evaluated schemes (Sec. 5.1) and the extra mechanisms. The Scheme enum
// remains as a thin compatibility alias: ElisionPolicy converts implicitly
// from it (via from_scheme), so existing callers migrate incrementally.
//
//   CriticalSection<TtasLock> cs(ElisionPolicy::hle_scm(), lock);
//   auto tuned = ElisionPolicy::hle_scm().with_scm_retries(4);
//
// Policies also carry the access-mode axis of the two-mode lock API
// (`.shared()` makes CriticalSection::run() take the lock in shared mode),
// and round-trip through one canonical string spelling:
//
//   ElisionPolicy::parse("hle-scm+shared")  ->  policy
//   policy.spec()                           ->  "hle-scm+shared"
//
// The spec grammar is `<scheme>[+shared][:knob=N...]` with the lower-case
// scheme slugs of scheme_slug(); bench point ids, bench JSON and every
// `elide` flag use this one spelling.
#pragma once

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "locks/adaptive.hpp"
#include "locks/grouped_scm.hpp"
#include "locks/region.hpp"
#include "locks/scm.hpp"
#include "locks/slr.hpp"

namespace elision::locks {

// The six evaluated locking schemes (Sec. 5.1 Methodology), plus the extra
// mechanisms used by specific experiments.
//
// Deprecated as a front-end: new code should pass an ElisionPolicy (which
// a Scheme converts into) so tuning knobs travel with the scheme choice.
enum class Scheme {
  kStandard,       // (1) plain non-speculative lock
  kHle,            // (2) hardware lock elision
  kHleScm,         // (3) HLE + software-assisted conflict management
  kPesSlr,         // (4) pessimistic software lock removal
  kOptSlr,         // (5) optimistic software lock removal
  kOptSlrScm,      // (6) optimistic SLR + conflict management
  kRtmElide,       // RTM-based elision (Fig 3.5 mechanism comparison)
  kHleScmNested,   // Algorithm 3 as designed: HLE nested in RTM
  kHleGroupedScm,  // future-work extension: per-conflict-line aux groups
  kAdaptive,       // online controller migrating HLE / SCM / gSCM / standard
};

inline const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kStandard: return "Standard";
    case Scheme::kHle: return "HLE";
    case Scheme::kHleScm: return "HLE-SCM";
    case Scheme::kPesSlr: return "pes-SLR";
    case Scheme::kOptSlr: return "opt-SLR";
    case Scheme::kOptSlrScm: return "opt-SLR-SCM";
    case Scheme::kRtmElide: return "RTM-elide";
    case Scheme::kHleScmNested: return "HLE-SCM-nested";
    case Scheme::kHleGroupedScm: return "HLE-gSCM";
    case Scheme::kAdaptive: return "Adaptive";
    default: return "?";
  }
}

// Canonical lower-case spelling of each scheme — the one spelling used by
// policy specs, bench point ids/JSON, and CLI flags. (Equal to scheme_name()
// lower-cased, so legacy mixed-case flag values still parse.)
inline const char* scheme_slug(Scheme s) {
  switch (s) {
    case Scheme::kStandard: return "standard";
    case Scheme::kHle: return "hle";
    case Scheme::kHleScm: return "hle-scm";
    case Scheme::kPesSlr: return "pes-slr";
    case Scheme::kOptSlr: return "opt-slr";
    case Scheme::kOptSlrScm: return "opt-slr-scm";
    case Scheme::kRtmElide: return "rtm-elide";
    case Scheme::kHleScmNested: return "hle-scm-nested";
    case Scheme::kHleGroupedScm: return "hle-gscm";
    case Scheme::kAdaptive: return "adaptive";
    default: return "?";
  }
}

inline constexpr Scheme kAllSchemes[] = {
    Scheme::kStandard,  Scheme::kHle,          Scheme::kHleScm,
    Scheme::kPesSlr,    Scheme::kOptSlr,       Scheme::kOptSlrScm,
    Scheme::kRtmElide,  Scheme::kHleScmNested, Scheme::kHleGroupedScm,
    Scheme::kAdaptive,
};

inline constexpr Scheme kAllSixSchemes[] = {
    Scheme::kStandard, Scheme::kHle,    Scheme::kHleScm,
    Scheme::kPesSlr,   Scheme::kOptSlr, Scheme::kOptSlrScm,
};

struct ElisionPolicy {
  Scheme scheme = Scheme::kStandard;
  // Default access mode of CriticalSection::run(): exclusive, or — for
  // two-mode locks — shared (the whole critical section runs as one of many
  // readers; the body must not write simulated shared state).
  AccessMode mode = AccessMode::kExclusive;
  RetryParams retry;       // HLE/RTM elision drivers
  ScmParams scm;           // kHleScm / kHleScmNested
  SlrParams slr;           // kPesSlr / kOptSlr / kOptSlrScm
  GroupedScmParams grouped;  // kHleGroupedScm
  AdaptiveParams adapt;      // kAdaptive controller knobs

  ElisionPolicy() = default;

  // --- named constructors (the paper's six schemes + extras) ---
  static ElisionPolicy standard() { return with(Scheme::kStandard); }
  static ElisionPolicy hle() { return with(Scheme::kHle); }
  static ElisionPolicy hle_scm() { return with(Scheme::kHleScm); }
  static ElisionPolicy hle_scm_nested() {
    ElisionPolicy p = with(Scheme::kHleScmNested);
    p.scm.nested_hle = true;
    return p;
  }
  static ElisionPolicy pes_slr() {
    ElisionPolicy p = with(Scheme::kPesSlr);
    p.slr.max_attempts = 1;
    return p;
  }
  static ElisionPolicy opt_slr() {
    ElisionPolicy p = with(Scheme::kOptSlr);
    p.slr.max_attempts = 10;
    return p;
  }
  static ElisionPolicy opt_slr_scm() {
    ElisionPolicy p = with(Scheme::kOptSlrScm);
    p.slr.scm = true;
    return p;
  }
  static ElisionPolicy rtm_elide() { return with(Scheme::kRtmElide); }
  static ElisionPolicy hle_grouped_scm() {
    return with(Scheme::kHleGroupedScm);
  }
  // Online mode controller (locks/adaptive.hpp): migrates each lock between
  // plain HLE, HLE-SCM, grouped SCM and no elision from windowed abort-rate
  // feedback with hysteresis.
  static ElisionPolicy adaptive() { return with(Scheme::kAdaptive); }

  static ElisionPolicy from_scheme(Scheme s) {
    switch (s) {
      case Scheme::kStandard: return standard();
      case Scheme::kHle: return hle();
      case Scheme::kHleScm: return hle_scm();
      case Scheme::kPesSlr: return pes_slr();
      case Scheme::kOptSlr: return opt_slr();
      case Scheme::kOptSlrScm: return opt_slr_scm();
      case Scheme::kRtmElide: return rtm_elide();
      case Scheme::kHleScmNested: return hle_scm_nested();
      case Scheme::kHleGroupedScm: return hle_grouped_scm();
      case Scheme::kAdaptive: return adaptive();
    }
    return standard();
  }

  const char* name() const { return scheme_name(scheme); }
  const char* slug() const { return scheme_slug(scheme); }

  // --- canonical string spec (parse/format round-trip) ---
  // `<scheme>[+shared][:knob=N...]`; knobs are emitted only when they differ
  // from the scheme's defaults, so from_scheme(s).spec() == scheme_slug(s).
  // parse(spec()) == *this for any policy built from the named constructors
  // and the fluent knobs below.
  std::string spec() const {
    std::string out = scheme_slug(scheme);
    if (mode == AccessMode::kShared) out += "+shared";
    ElisionPolicy base = from_scheme(scheme);
    char buf[48];
    if (scm.max_retries != base.scm.max_retries) {
      std::snprintf(buf, sizeof buf, ":scm-retries=%d", scm.max_retries);
      out += buf;
    }
    if (slr.max_attempts != base.slr.max_attempts) {
      std::snprintf(buf, sizeof buf, ":slr-attempts=%d", slr.max_attempts);
      out += buf;
    }
    if (retry.max_spec_attempts != base.retry.max_spec_attempts) {
      std::snprintf(buf, sizeof buf, ":spec-attempts=%d",
                    retry.max_spec_attempts);
      out += buf;
    }
    if (retry.backoff_base_cycles != base.retry.backoff_base_cycles) {
      std::snprintf(buf, sizeof buf, ":backoff=%llu",
                    static_cast<unsigned long long>(
                        retry.backoff_base_cycles));
      out += buf;
    }
    if (adapt.window != base.adapt.window) {
      std::snprintf(buf, sizeof buf, ":window=%d", adapt.window);
      out += buf;
    }
    if (adapt.up_pct != base.adapt.up_pct) {
      std::snprintf(buf, sizeof buf, ":up=%d", adapt.up_pct);
      out += buf;
    }
    if (adapt.down_pct != base.adapt.down_pct) {
      std::snprintf(buf, sizeof buf, ":down=%d", adapt.down_pct);
      out += buf;
    }
    if (adapt.dwell != base.adapt.dwell) {
      std::snprintf(buf, sizeof buf, ":dwell=%d", adapt.dwell);
      out += buf;
    }
    return out;
  }

  // Parses a policy spec (case-insensitive; legacy scheme_name() spellings
  // such as "HLE-SCM" are accepted because they lower-case to the slug).
  // Returns nullopt for an unknown scheme or a malformed knob.
  static std::optional<ElisionPolicy> parse(std::string_view s) {
    std::string lower(s);
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    std::string_view rest = lower;
    const std::size_t colon = rest.find(':');
    std::string_view head = rest.substr(0, colon);
    rest = colon == std::string_view::npos ? std::string_view{}
                                           : rest.substr(colon + 1);
    bool shared = false;
    constexpr std::string_view kSharedSuffix = "+shared";
    if (head.size() >= kSharedSuffix.size() &&
        head.substr(head.size() - kSharedSuffix.size()) == kSharedSuffix) {
      shared = true;
      head = head.substr(0, head.size() - kSharedSuffix.size());
    }
    std::optional<ElisionPolicy> out;
    for (const Scheme sch : kAllSchemes) {
      if (head == scheme_slug(sch)) {
        out = from_scheme(sch);
        break;
      }
    }
    if (!out) return std::nullopt;
    if (shared) out->mode = AccessMode::kShared;
    while (!rest.empty()) {
      const std::size_t next = rest.find(':');
      const std::string_view knob = rest.substr(0, next);
      rest = next == std::string_view::npos ? std::string_view{}
                                            : rest.substr(next + 1);
      const std::size_t eq = knob.find('=');
      if (eq == std::string_view::npos) return std::nullopt;
      const std::string_view key = knob.substr(0, eq);
      const std::string value(knob.substr(eq + 1));
      // Knob values are non-negative decimal integers. Requiring a leading
      // digit rejects what strtoull would silently accept: a leading '-'
      // (which wraps — "-1" becomes ULLONG_MAX and a negative retry count
      // after the int cast), '+', and whitespace.
      if (value.empty() ||
          !std::isdigit(static_cast<unsigned char>(value[0]))) {
        return std::nullopt;
      }
      char* end = nullptr;
      errno = 0;
      const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || errno == ERANGE) {
        return std::nullopt;
      }
      // Every knob but backoff is an int: range-check before the cast so an
      // out-of-range value cannot wrap into a negative count.
      const bool fits_int = n <= static_cast<unsigned long long>(INT_MAX);
      if (key == "scm-retries") {
        if (!fits_int) return std::nullopt;
        *out = out->with_scm_retries(static_cast<int>(n));
      } else if (key == "slr-attempts") {
        if (!fits_int) return std::nullopt;
        *out = out->with_slr_attempts(static_cast<int>(n));
      } else if (key == "spec-attempts") {
        if (!fits_int) return std::nullopt;
        *out = out->with_max_spec_attempts(static_cast<int>(n));
      } else if (key == "backoff") {
        *out = out->with_backoff(n);
      } else if (key == "window") {
        if (!fits_int) return std::nullopt;
        *out = out->with_adaptive_window(static_cast<int>(n));
      } else if (key == "up") {
        if (!fits_int) return std::nullopt;
        out->adapt.up_pct = static_cast<int>(n);
      } else if (key == "down") {
        if (!fits_int) return std::nullopt;
        out->adapt.down_pct = static_cast<int>(n);
      } else if (key == "dwell") {
        if (!fits_int) return std::nullopt;
        *out = out->with_adaptive_dwell(static_cast<int>(n));
      } else {
        return std::nullopt;
      }
    }
    return out;
  }

  friend bool operator==(const ElisionPolicy&, const ElisionPolicy&) =
      default;

  // --- fluent tuning knobs ---
  ElisionPolicy with_mode(AccessMode m) const {
    ElisionPolicy p = *this;
    p.mode = m;
    return p;
  }
  // Shared-mode variant of this policy: run() takes the lock as a reader.
  ElisionPolicy shared() const { return with_mode(AccessMode::kShared); }
  ElisionPolicy with_scm_retries(int n) const {
    ElisionPolicy p = *this;
    p.scm.max_retries = n;
    p.slr.scm_max_retries = n;
    p.grouped.max_retries = n;
    return p;
  }
  ElisionPolicy with_slr_attempts(int n) const {
    ElisionPolicy p = *this;
    p.slr.max_attempts = n;
    return p;
  }
  ElisionPolicy with_max_spec_attempts(int n) const {
    ElisionPolicy p = *this;
    p.retry.max_spec_attempts = n;
    return p;
  }
  ElisionPolicy with_backoff(std::uint64_t base_cycles) const {
    ElisionPolicy p = *this;
    p.retry.backoff_base_cycles = base_cycles;
    return p;
  }
  // Adaptive-controller knobs (kAdaptive; see locks/adaptive.hpp).
  ElisionPolicy with_adaptive_window(int regions) const {
    ElisionPolicy p = *this;
    p.adapt.window = regions;
    return p;
  }
  ElisionPolicy with_adaptive_thresholds(int up_pct, int down_pct) const {
    ElisionPolicy p = *this;
    p.adapt.up_pct = up_pct;
    p.adapt.down_pct = down_pct;
    return p;
  }
  ElisionPolicy with_adaptive_dwell(int windows) const {
    ElisionPolicy p = *this;
    p.adapt.dwell = windows;
    return p;
  }

 private:
  static ElisionPolicy with(Scheme s) {
    ElisionPolicy p;
    p.scheme = s;
    return p;
  }
};

}  // namespace elision::locks

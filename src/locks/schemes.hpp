// The uniform critical-section runner over the evaluated locking schemes
// (Sec. 5.1 Methodology). Scheme selection and tuning travel together in an
// ElisionPolicy (locks/policy.hpp); the legacy Scheme enum still converts
// implicitly for existing call sites.
#pragma once

#include "locks/adaptive.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/policy.hpp"
#include "locks/region.hpp"
#include "locks/grouped_scm.hpp"
#include "locks/scm.hpp"
#include "locks/slr.hpp"
#include "support/function_ref.hpp"

namespace elision::locks {

// Runs critical sections under a chosen policy. One instance per (lock,
// policy) pair; shared by all threads (the per-episode SCM/SLR state is
// local to each run() call, per Algorithm 3).
template <typename Lock>
class CriticalSection {
 public:
  CriticalSection(ElisionPolicy policy, Lock& main)
      : policy_(policy), main_(main), adaptive_(policy.adapt) {}

  Scheme scheme() const { return policy_.scheme; }
  const ElisionPolicy& policy() const { return policy_; }
  // The online mode controller consulted by Scheme::kAdaptive dispatch
  // (mode ladder, hysteresis state, decision trace). Inert under every
  // other scheme.
  const AdaptiveController& adaptive() const { return adaptive_; }

  // Runs the body under the policy's default access mode (exclusive unless
  // the policy was built with .shared()).
  RegionResult run(tsx::Ctx& ctx, support::FunctionRef<void()> body) {
    return run_mode(ctx, policy_.mode, body);
  }

  // Explicit-mode entry points. run_shared() requires a two-mode lock; the
  // body runs as one of many readers and must not write simulated shared
  // state (mirrors snippet-style transactional_shared_lock_guard usage).
  RegionResult run_exclusive(tsx::Ctx& ctx,
                             support::FunctionRef<void()> body) {
    return run_mode(ctx, AccessMode::kExclusive, body);
  }
  RegionResult run_shared(tsx::Ctx& ctx, support::FunctionRef<void()> body)
    requires detail::kHasSharedMode<Lock>
  {
    return run_mode(ctx, AccessMode::kShared, body);
  }

  RegionResult run_mode(tsx::Ctx& ctx, AccessMode mode,
                        support::FunctionRef<void()> body) {
    if constexpr (!detail::kHasSharedMode<Lock>) {
      ELISION_CHECK_MSG(mode == AccessMode::kExclusive,
                        "shared-mode policy requires a two-mode lock "
                        "(SharedTtasLock / SharedMcsLock)");
    }
    switch (policy_.scheme) {
      case Scheme::kStandard: {
        RegionResult r;
        complete_locked(ctx, main_, r, body, mode);
        return r;
      }
      case Scheme::kHle:
        return hle_region(ctx, main_, policy_.retry, body, mode);
      case Scheme::kRtmElide:
        return rtm_elide_region(ctx, main_, policy_.retry, body, mode);
      case Scheme::kHleScm:
      case Scheme::kHleScmNested:
        return scm_region(ctx, main_, aux_, policy_.scm, body, mode);
      case Scheme::kPesSlr:
      case Scheme::kOptSlr:
      case Scheme::kOptSlrScm:
        return slr_region(ctx, main_, aux_, policy_.slr, body, mode);
      case Scheme::kHleGroupedScm:
        return grouped_scm_region(ctx, main_, aux_bank_, policy_.grouped,
                                  body, mode);
      case Scheme::kAdaptive:
        return adaptive_region(ctx, body, mode);
    }
    ELISION_CHECK_MSG(false, "unknown scheme");
    return {};
  }

 private:
  // Scheme::kAdaptive: consult the controller's current mode, dispatch to
  // that mode's region driver, and feed the region's outcome back. Threads
  // mid-region during a migration simply finish under the mode they
  // started with — every mode ultimately respects the main lock, so any
  // mix is as safe as that mode's own fallback path.
  RegionResult adaptive_region(tsx::Ctx& ctx,
                               support::FunctionRef<void()> body,
                               AccessMode mode) {
    RegionResult r;
    switch (adaptive_.mode()) {
      case AdaptiveMode::kHle:
        r = hle_region(ctx, main_, policy_.retry, body, mode);
        break;
      case AdaptiveMode::kHleScm:
        r = scm_region(ctx, main_, aux_, policy_.scm, body, mode);
        break;
      case AdaptiveMode::kHleGroupedScm:
        r = grouped_scm_region(ctx, main_, aux_bank_, policy_.grouped, body,
                               mode);
        break;
      case AdaptiveMode::kStandard:
        complete_locked(ctx, main_, r, body, mode);
        break;
    }
    adaptive_.on_region(ctx.thread().now(), r.speculative, r.attempts);
    return r;
  }

  ElisionPolicy policy_;
  Lock& main_;
  // The auxiliary lock must be starvation-free (Ch. 4): MCS.
  McsLock aux_;
  // Auxiliary lock groups for the grouped-SCM extension.
  AuxLockBank<McsLock, 8> aux_bank_;
  // Online mode controller for Scheme::kAdaptive.
  AdaptiveController adaptive_;
};

}  // namespace elision::locks

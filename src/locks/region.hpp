// Critical-section region drivers: HLE-based and RTM-based lock elision.
//
// hle_region() models exactly what the hardware does around an elided
// critical section: the first attempt runs the lock code with the XACQUIRE
// op beginning a transaction; an abort rolls everything back and re-issues
// the acquiring store non-transactionally. For TTAS that store can fail
// (lock held), after which the software algorithm spins and re-enters
// speculation — the recovery behaviour of Ch. 3. For fair locks it enqueues
// the thread, which then completes non-speculatively.
//
// rtm_elide_region() is the paper's "equivalent lock elision mechanism based
// on the RTM instructions" (Ch. 3 Remark, Fig 3.5): the transaction reads
// the lock at its start and aborts if it is held; this variant can observe
// abort statuses, which plain HLE hides.
//
// Both drivers share one non-speculative completion tail,
// complete_standard(), which also emits the lock acquire/release telemetry
// events the avalanche detector keys on.
#pragma once

#include "support/check.hpp"
#include "support/function_ref.hpp"
#include "tsx/engine.hpp"

namespace elision::locks {

// The access-mode axis of the two-mode lock API: every region driver can run
// a critical section as the exclusive holder or — for locks providing a
// shared mode — as one of many readers. Exclusive is the default everywhere,
// so single-mode locks and existing call sites are unaffected.
enum class AccessMode : std::uint8_t {
  kExclusive,
  kShared,
};

// How a critical section eventually completed.
struct RegionResult {
  bool speculative = false;  // completed as a committed transaction
  int attempts = 0;          // executions tried (aborted + the completing one)
  // Cause of the last *failed* attempt (kNone if the first attempt
  // committed). Lets callers and the metrics layer attribute fallbacks
  // without a full event trace.
  tsx::AbortCause last_abort = tsx::AbortCause::kNone;
};

// XABORT code used by elision/removal schemes when the lock is observed held.
inline constexpr std::uint8_t kAbortCodeLockBusy = 0xA0;

// Retry/backoff knobs of the elision drivers (consumed via ElisionPolicy).
struct RetryParams {
  // After this many failed speculative attempts the driver stops
  // re-entering speculation and completes non-speculatively, waiting for
  // the lock if it must. 0 = keep re-entering speculation (the paper's
  // baseline HLE behaviour).
  int max_spec_attempts = 0;
  // If nonzero, wait a randomized exponentially-growing number of cycles
  // (base << failures, capped) before re-entering speculation.
  std::uint64_t backoff_base_cycles = 0;

  friend bool operator==(const RetryParams&, const RetryParams&) = default;
};

namespace detail {

// The two-mode lock concept: a lock is shared-capable when it implements the
// shared-mode half of the contract next to the exclusive one.
template <typename Lock>
inline constexpr bool kHasSharedMode = requires(Lock& l, tsx::Ctx& c) {
  l.lock_shared(c);
  l.unlock_shared(c);
  l.is_write_locked(c);
  l.reissue_acquire_shared_standard(c);
};

// Mode-dispatched lock operations. For single-mode locks these compile down
// to the exclusive calls (and shared mode is a programming error).
template <typename Lock>
void mode_lock(tsx::Ctx& ctx, Lock& lock, AccessMode mode) {
  if constexpr (kHasSharedMode<Lock>) {
    if (mode == AccessMode::kShared) {
      lock.lock_shared(ctx);
      return;
    }
  } else {
    ELISION_DCHECK(mode == AccessMode::kExclusive);
  }
  lock.lock(ctx);
}

template <typename Lock>
void mode_unlock(tsx::Ctx& ctx, Lock& lock, AccessMode mode) {
  if constexpr (kHasSharedMode<Lock>) {
    if (mode == AccessMode::kShared) {
      lock.unlock_shared(ctx);
      return;
    }
  } else {
    ELISION_DCHECK(mode == AccessMode::kExclusive);
  }
  lock.unlock(ctx);
}

template <typename Lock>
bool mode_reissue(tsx::Ctx& ctx, Lock& lock, AccessMode mode) {
  if constexpr (kHasSharedMode<Lock>) {
    if (mode == AccessMode::kShared) {
      return lock.reissue_acquire_shared_standard(ctx);
    }
  } else {
    ELISION_DCHECK(mode == AccessMode::kExclusive);
  }
  return lock.reissue_acquire_standard(ctx);
}

// What blocks this access (the RTM-style schemes' "lock busy" subscription
// check, and the drivers' spin-wait): an exclusive acquirer is blocked by
// any holder; a shared acquirer only by a writer — speculative readers
// coexist with real readers, which is where shared-mode elision wins over
// exclusive elision on read-mostly workloads.
template <typename Lock>
bool mode_blocked(tsx::Ctx& ctx, Lock& lock, AccessMode mode) {
  if constexpr (kHasSharedMode<Lock>) {
    if (mode == AccessMode::kShared) return lock.is_write_locked(ctx);
  } else {
    ELISION_DCHECK(mode == AccessMode::kExclusive);
  }
  return lock.is_held(ctx);
}

// Locks exposing their elidable word's cache line (lock_line()) let
// telemetry tag lock events with it; others report 0 (unknown).
template <typename Lock>
support::LineId lock_line_of(Lock& lock) {
  if constexpr (requires { lock.lock_line(); }) {
    return lock.lock_line();
  } else {
    return 0;
  }
}

// Longest randomized backoff wait: 2^32 cycles (~1.3 simulated seconds at
// 3.4 GHz) — far beyond any useful backoff, but finite, so a pathological
// backoff_base_cycles cannot stall a thread for a virtual eternity.
inline constexpr std::uint64_t kMaxBackoffBoundCycles = std::uint64_t{1}
                                                        << 32;

inline void backoff(tsx::Ctx& ctx, const RetryParams& p, int failures) {
  if (p.backoff_base_cycles == 0) return;
  const int shift = failures < 10 ? failures : 10;
  // Clamp before shifting: for a large base, base << shift wraps modulo
  // 2^64 — possibly to 0, which next_below() rejects (and which would mean
  // "no backoff at all" exactly when the caller asked for the longest one).
  const std::uint64_t bound =
      p.backoff_base_cycles >= (kMaxBackoffBoundCycles >> shift)
          ? kMaxBackoffBoundCycles
          : p.backoff_base_cycles << shift;
  ctx.thread().tick(1 + ctx.thread().rng().next_below(bound));
}

}  // namespace detail

// The shared fallback tail of the elision schemes: re-issue the acquiring
// store non-speculatively and, if it acquired, run the body for real and
// release. Returns false when the re-issued store found the lock held
// (TTAS), in which case the caller spins and may re-enter speculation.
//
// The kLockAcquire event is deliberately timestamped *before* the re-issued
// store: that store is what invalidates the lock line in every speculating
// reader (the avalanche trigger), so victims' abort events follow it.
template <typename Lock>
bool complete_standard(tsx::Ctx& ctx, Lock& lock, RegionResult& r,
                       support::FunctionRef<void()> body,
                       AccessMode mode = AccessMode::kExclusive) {
  auto& eng = ctx.engine();
  const support::LineId line = detail::lock_line_of(lock);
  eng.note_event(ctx, tsx::EventKind::kLockAcquire, line);
  if (!detail::mode_reissue(ctx, lock, mode)) return false;
  ++r.attempts;
  body();
  detail::mode_unlock(ctx, lock, mode);
  eng.note_event(ctx, tsx::EventKind::kLockRelease, line);
  r.speculative = false;
  return true;
}

// Unconditional non-speculative completion: blockingly acquire the main
// lock, run the body, release. Used by the standard scheme and by the
// SCM/SLR give-up paths.
template <typename Lock>
void complete_locked(tsx::Ctx& ctx, Lock& lock, RegionResult& r,
                     support::FunctionRef<void()> body,
                     AccessMode mode = AccessMode::kExclusive) {
  auto& eng = ctx.engine();
  const support::LineId line = detail::lock_line_of(lock);
  eng.note_event(ctx, tsx::EventKind::kLockAcquire, line);
  detail::mode_lock(ctx, lock, mode);
  ++r.attempts;
  body();
  detail::mode_unlock(ctx, lock, mode);
  eng.note_event(ctx, tsx::EventKind::kLockRelease, line);
  r.speculative = false;
}

template <typename Lock>
RegionResult hle_region(tsx::Ctx& ctx, Lock& lock, const RetryParams& params,
                        support::FunctionRef<void()> body,
                        AccessMode mode = AccessMode::kExclusive) {
  RegionResult r;
  int spec_failures = 0;
  for (;;) {
    ++r.attempts;
    // The XACQUIRE inside mode_lock begins the transaction; an abort
    // resumes here with everything rolled back by the engine.
    const unsigned st = ctx.engine().attempt(ctx, [&] {
      ctx.set_mode(tsx::ElisionMode::kSpeculative);
      detail::mode_lock(ctx, lock, mode);
      body();
      detail::mode_unlock(ctx, lock, mode);  // the XRELEASE commits
    });
    ctx.set_mode(tsx::ElisionMode::kStandard);
    if (st == tsx::kCommitted) {
      r.speculative = true;
      return r;
    }
    r.last_abort = ctx.last_abort_cause();
    ++spec_failures;
    if (complete_standard(ctx, lock, r, body, mode)) return r;
    if (params.max_spec_attempts > 0 &&
        spec_failures >= params.max_spec_attempts) {
      // Speculation budget exhausted: stop re-entering it and wait for the
      // standard re-acquisition to succeed.
      for (;;) {
        while (detail::mode_blocked(ctx, lock, mode)) ctx.engine().pause(ctx);
        if (complete_standard(ctx, lock, r, body, mode)) return r;
      }
    }
    detail::backoff(ctx, params, spec_failures);
    // The re-issued store found the lock held (TTAS): spin in lock() on the
    // next iteration and re-enter speculation once the lock is free.
  }
}

template <typename Lock>
RegionResult hle_region(tsx::Ctx& ctx, Lock& lock,
                        support::FunctionRef<void()> body) {
  return hle_region(ctx, lock, RetryParams{}, body);
}

template <typename Lock>
RegionResult rtm_elide_region(tsx::Ctx& ctx, Lock& lock,
                              const RetryParams& params,
                              support::FunctionRef<void()> body,
                              AccessMode mode = AccessMode::kExclusive) {
  auto& eng = ctx.engine();
  RegionResult r;
  int spec_failures = 0;
  for (;;) {
    ++r.attempts;
    const unsigned st = eng.run_transaction(ctx, [&] {
      // Put the lock in the read set and check it does not block this
      // access mode (lock elision via RTM; no illusion of holding the
      // lock). In shared mode only a writer blocks — the speculative reader
      // coexists with real readers.
      if (detail::mode_blocked(ctx, lock, mode)) {
        eng.xabort(ctx, kAbortCodeLockBusy);
      }
      body();
    });
    if (st == tsx::kCommitted) {
      r.speculative = true;
      return r;
    }
    r.last_abort = ctx.last_abort_cause();
    ++spec_failures;
    if (complete_standard(ctx, lock, r, body, mode)) return r;
    if (params.max_spec_attempts > 0 &&
        spec_failures >= params.max_spec_attempts) {
      for (;;) {
        while (detail::mode_blocked(ctx, lock, mode)) eng.pause(ctx);
        if (complete_standard(ctx, lock, r, body, mode)) return r;
      }
    }
    detail::backoff(ctx, params, spec_failures);
    while (detail::mode_blocked(ctx, lock, mode)) eng.pause(ctx);
  }
}

template <typename Lock>
RegionResult rtm_elide_region(tsx::Ctx& ctx, Lock& lock,
                              support::FunctionRef<void()> body) {
  return rtm_elide_region(ctx, lock, RetryParams{}, body);
}

}  // namespace elision::locks

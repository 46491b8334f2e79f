// Abort-telemetry subsystem: low-overhead per-thread ring-buffer event
// traces of everything the elision stack does (transaction begin/commit/
// abort with cause and conflict location, non-speculative lock
// acquire/release, SCM auxiliary-lock enter/exit/rejoin), plus the
// post-processing that turns raw traces into the paper's Chapter 3
// phenomena — most importantly the *avalanche detector*, which groups
// events into serialization episodes (trigger thread, victim set,
// serialized duration in cycles).
//
// Design constraints:
//  * The simulation hot path pays a single predictable branch when
//    telemetry is off (a null-pointer test in Engine), and nothing at all
//    when compiled out with ELISION_TELEMETRY_DISABLED.
//  * Recording is a bounded-memory ring write: long runs keep the newest
//    events per thread and count what they dropped.
//  * The simulator is single-host-threaded (fibers), so recording needs no
//    synchronization; "per-thread" rings exist to bound memory fairly and
//    to keep per-thread event order trivially reconstructible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "support/align.hpp"
#include "tsx/abort.hpp"

namespace elision::tsx {

// Compile-time kill switch: with ELISION_TELEMETRY_DISABLED defined, every
// record site compiles away (if constexpr) and Telemetry cannot be attached.
#ifdef ELISION_TELEMETRY_DISABLED
inline constexpr bool kTelemetryCompiled = false;
#else
inline constexpr bool kTelemetryCompiled = true;
#endif

enum class EventKind : std::uint8_t {
  kTxBegin,      // transaction started (RTM xbegin or HLE elision)
  kTxCommit,     // transaction committed
  kTxAbort,      // transaction aborted (cause, conflict line, aborter)
  kLockAcquire,  // non-speculative main-lock acquisition began (the
                 // re-issued store that can trigger an avalanche)
  kLockRelease,  // non-speculative main-lock release completed
  kAuxEnter,     // SCM: thread arrived at the auxiliary serialization point
  kAuxRejoin,    // SCM: speculation succeeded while holding the aux lock
  kAuxExit,      // SCM: auxiliary lock released
  kKindCount,
};

const char* to_string(EventKind k);

struct TelemetryEvent {
  std::uint64_t timestamp = 0;        // virtual cycles
  support::LineId line = 0;           // conflict line (aborts) or lock line
  std::int16_t thread = -1;
  std::int16_t other_thread = -1;     // aborting requester for kTxAbort
  EventKind kind = EventKind::kTxBegin;
  AbortCause cause = AbortCause::kNone;  // kTxAbort only
};

// Fixed-capacity per-thread event ring. Capacity is rounded up to a power
// of two; once full, the oldest events are overwritten (and counted).
class EventRing {
 public:
  explicit EventRing(std::size_t capacity);

  void push(const TelemetryEvent& e) {
    buf_[static_cast<std::size_t>(pushed_) & mask_] = e;
    ++pushed_;
  }

  std::size_t capacity() const { return buf_.size(); }
  std::uint64_t recorded() const { return pushed_; }
  std::uint64_t dropped() const {
    return pushed_ > buf_.size() ? pushed_ - buf_.size() : 0;
  }
  std::size_t size() const {
    return pushed_ < buf_.size() ? static_cast<std::size_t>(pushed_)
                                 : buf_.size();
  }

  // Retained events, oldest first.
  std::vector<TelemetryEvent> snapshot() const;

 private:
  std::vector<TelemetryEvent> buf_;
  std::size_t mask_ = 0;
  std::uint64_t pushed_ = 0;
};

// The telemetry sink an Engine (and the region drivers, through it) emit
// into. Owns one EventRing per simulated thread.
class Telemetry {
 public:
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

  explicit Telemetry(std::size_t ring_capacity = kDefaultRingCapacity)
      : ring_capacity_(ring_capacity) {}

  void record(const TelemetryEvent& e) { ring(e.thread).push(e); }

  EventRing& ring(int thread);
  int thread_count() const { return static_cast<int>(rings_.size()); }

  std::uint64_t total_recorded() const;
  std::uint64_t total_dropped() const;
  void clear() { rings_.clear(); }

  // All retained events of all threads, merged in timestamp order (ties
  // broken by thread id, then per-thread order).
  std::vector<TelemetryEvent> merged() const;

  void dump_csv(std::FILE* out) const;
  void dump_json(std::FILE* out) const;

 private:
  std::size_t ring_capacity_;
  std::vector<std::unique_ptr<EventRing>> rings_;  // indexed by thread id
};

// ---------------------------------------------------------------------------
// Avalanche detection (Ch. 3).
//
// An avalanche is seeded by one thread falling off speculation and
// re-issuing its lock acquisition non-speculatively: that store invalidates
// the lock's cache line in every speculating reader, aborting them all, and
// the lock then drains the threads serially. In a telemetry trace this
// appears as a kLockAcquire followed by a burst of kTxAbort events from
// other threads and a chain of further non-speculative acquire/release
// pairs. The detector groups such bursts into episodes.
// ---------------------------------------------------------------------------

struct AvalancheConfig {
  // Maximum gap (cycles) between consecutive episode events; a longer quiet
  // period closes the episode.
  std::uint64_t window_cycles = 20000;
  // Episodes with fewer distinct victims are not avalanches (a single
  // conflicting pair serializing is expected behaviour, not a cascade).
  int min_victims = 2;
};

struct AvalancheEpisode {
  int trigger_thread = -1;        // thread whose fallback seeded the episode
  std::uint64_t start = 0;        // timestamp of the seeding kLockAcquire
  std::uint64_t end = 0;          // last event of the serialized convoy
  support::LineId line = 0;       // lock line of the trigger (0 if unknown)
  std::vector<int> victims;       // distinct threads aborted in the episode
  std::uint64_t aborts = 0;       // total aborts inside the episode
  std::uint64_t serialized_ops = 0;  // non-speculative completions inside

  int victim_count() const { return static_cast<int>(victims.size()); }
  std::uint64_t duration() const { return end - start; }
};

// Post-processes a merged, timestamp-ordered event stream into episodes.
std::vector<AvalancheEpisode> detect_avalanches(
    const std::vector<TelemetryEvent>& merged, const AvalancheConfig& cfg = {});

inline std::vector<AvalancheEpisode> detect_avalanches(
    const Telemetry& t, const AvalancheConfig& cfg = {}) {
  return detect_avalanches(t.merged(), cfg);
}

// Per-thread SCM rejoin latencies: cycles between a thread's arrival at the
// auxiliary lock (kAuxEnter) and its release of it (kAuxExit), i.e. the time
// a conflicting thread spent serialized before rejoining full-speed
// speculation. One sample per enter/exit pair.
std::vector<std::uint64_t> rejoin_latencies(
    const std::vector<TelemetryEvent>& merged);

}  // namespace elision::tsx

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
//    telemetry is off (a null-pointer test in Engine).
//  * Recording is a bounded-memory ring write: long runs keep the newest
//    events per thread and count what they dropped.
//  * The simulator is single-host-threaded (fibers), so recording needs no
//    synchronization; "per-thread" rings exist to bound memory fairly and
//    to keep per-thread event order trivially reconstructible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "support/align.hpp"
#include "support/check.hpp"
#include "support/mapped_region.hpp"
#include "tsx/abort.hpp"

namespace elision::tsx {

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
static_assert(std::is_trivially_copyable_v<TelemetryEvent>);

// Fixed-capacity per-thread event ring. Capacity is rounded up to a power
// of two; once full, the oldest events are overwritten (and counted). The
// storage is reserved, not committed (support::MappedRegion): a page is
// backed only when the first event lands in it, so a thread that records
// little costs little. Events must arrive in non-decreasing timestamp order
// (checked in debug builds): Telemetry::merged() relies on it.
class EventRing {
 public:
  explicit EventRing(std::size_t capacity);

  void push(const TelemetryEvent& e) {
    ELISION_DCHECK(pushed_ == 0 ||
                   e.timestamp >= buf_[(pushed_ - 1) & mask_].timestamp);
    // memcpy starts the slot's lifetime on a never-written page as well.
    std::memcpy(&buf_[pushed_ & mask_], &e, sizeof e);
    ++pushed_;
  }

  std::size_t capacity() const { return mask_ + 1; }
  std::uint64_t recorded() const { return pushed_; }
  std::uint64_t dropped() const {
    return pushed_ > capacity() ? pushed_ - capacity() : 0;
  }
  std::size_t size() const {
    return pushed_ < capacity() ? static_cast<std::size_t>(pushed_)
                                : capacity();
  }

  // Retained event i, oldest first (i < size()); read in place.
  const TelemetryEvent& operator[](std::size_t i) const {
    return buf_[(pushed_ - size() + i) & mask_];
  }

 private:
  std::uint64_t mask_;  // capacity - 1
  support::MappedRegion storage_;
  TelemetryEvent* buf_;
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

  // The ring of `thread` (>= 0), created on first use. It must only receive
  // that thread's events.
  EventRing& ring(int thread);
  int thread_count() const { return static_cast<int>(rings_.size()); }

  std::uint64_t total_recorded() const;
  std::uint64_t total_dropped() const;
  void clear() { rings_.clear(); }

  // All retained events of all threads in timestamp order; ties break by
  // thread id, then by each thread's recording order. This is exactly a
  // stable sort by (timestamp, thread) of the rings' events concatenated in
  // thread order, computed as a k-way merge that reads the rings in place.
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

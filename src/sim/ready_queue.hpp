// Incrementally-maintained min/argmin index over per-thread virtual clocks.
//
// The scheduler needs, once per scheduling decision, the smallest clock
// among runnable threads and the id of its first holder (lowest tid wins
// ties). The seed implementation swept all N clocks per access with a
// data-dependent argmin branch — O(N) work and a mispredict-heavy loop that
// dominated the profile on big simulated machines.
//
// The live tids sit in a ring of kMaxSimThreads slots, sorted by
// (clock, tid) from its head. min_entry() reads the head, so the pick and
// the preemption-bound recompute of a context switch are O(1). A context
// switch is exchange(), since the incoming thread is the head: the head
// advances one slot (an O(1) pop-front) and the outgoing thread is inserted
// by scanning from the back. The outgoing thread ran until it passed
// everyone else's minimum plus the yield slack, so it lands at or near the
// back: one compare in the round-robin case, and 1.7 moved entries on
// average on a 64-thread machine with 200 cycles of slack. (clock, tid)
// order puts the lowest tid first among equal clocks, which is exactly the
// seed sweep's first-index-wins tie-break, so schedules are preserved
// bit-for-bit.
//
// Finished threads and the running thread are parked at kFinishedClock,
// which the ring leaves out, so min_clock() is the minimum over the other
// runnable threads and degrades to the sentinel when there is none.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "sim/machine_config.hpp"
#include "support/check.hpp"
#include "support/inline.hpp"

namespace elision::sim {

class ReadyQueue {
 public:
  static constexpr std::uint64_t kFinishedClock =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr std::size_t kCapacity =
      static_cast<std::size_t>(kMaxSimThreads);
  static_assert((kCapacity & (kCapacity - 1)) == 0,
                "the ring wraps its indices with a mask");

  // Registers the next thread id (clock 0) and returns it.
  int add_thread() {
    ELISION_CHECK_MSG(size_ < kCapacity,
                      "ReadyQueue holds at most kMaxSimThreads threads");
    const int tid = static_cast<int>(size_++);
    set(tid, 0);
    return tid;
  }

  // Sets tid's clock and moves its entry to its sorted position: removes
  // it for the sentinel, inserts it when it leaves the sentinel. Callers:
  // spawn, and the scheduler's park of the thread it dispatches, which is
  // the head (so finding and removing it is an O(1) pop).
  void set(int tid, std::uint64_t clock) {
    ELISION_DCHECK(static_cast<std::size_t>(tid) < size_);
    std::size_t k = 0;
    while (k < live_ && at(k).tid != tid) ++k;
    if (k == live_) {  // not in the ring: at the sentinel
      if (clock != kFinishedClock) place_from_back(live_++, {clock, tid});
      return;
    }
    if (clock == kFinishedClock) {
      // Close the gap from the front, then pop it.
      for (; k > 0; --k) at(k) = at(k - 1);
      head_ = (head_ + 1) & kRingMask;
      --live_;
      return;
    }
    // Slot k is free: move it forward past smaller entries, then insert
    // backwards (only one of the two loops moves anything).
    for (; k + 1 < live_ && before(at(k + 1), {clock, tid}); ++k) {
      at(k) = at(k + 1);
    }
    place_from_back(k, {clock, tid});
  }

  // Fused context-switch update: re-enters the outgoing thread (whose slot
  // sits at the sentinel) at its final clock and parks the head — the
  // current argmin, which is the incoming thread — at the sentinel. A
  // pop-front fused with one insertion from the back. Runs once per context
  // switch.
  void exchange(int out_tid, std::uint64_t out_clock) {
    ELISION_DCHECK(live_ > 0 && out_clock != kFinishedClock);
    // The head's slot becomes the free slot one past the new back, which is
    // where insertion starts.
    head_ = (head_ + 1) & kRingMask;
    place_from_back(live_ - 1, {out_clock, out_tid});
  }

  // The (min clock, lowest holder tid) pair over the live threads, in O(1):
  // the head of the ring. With no live thread it is {kFinishedClock, 0}.
  struct Entry {
    std::uint64_t clock;
    std::int32_t tid;
  };
  ELISION_ALWAYS_INLINE Entry min_entry() const {
    return live_ > 0 ? order_[head_] : Entry{kFinishedClock, 0};
  }

  // Smallest live clock (kFinishedClock if none is live).
  std::uint64_t min_clock() const { return min_entry().clock; }

  // Lowest tid holding min_clock(). Only meaningful while some thread is
  // live.
  int min_tid() const { return min_entry().tid; }

 private:
  // Ring order: (clock, tid) lexicographic.
  static bool before(const Entry& a, const Entry& b) {
    return a.clock < b.clock || (a.clock == b.clock && a.tid < b.tid);
  }

  // The k-th live entry of the ring, counted from the head.
  Entry& at(std::size_t k) { return order_[(head_ + k) & kRingMask]; }

  // Slot k of the ring is free and every entry after it is not before e:
  // moves the free slot back past larger entries and stores e there.
  void place_from_back(std::size_t k, const Entry& e) {
    for (; k > 0 && before(e, at(k - 1)); --k) at(k) = at(k - 1);
    at(k) = e;
  }

  // The live threads, sorted by (clock, tid) from order_[head_], the argmin.
  static constexpr std::size_t kRingMask = kCapacity - 1;
  std::array<Entry, kCapacity> order_{};
  std::size_t head_ = 0;
  std::size_t live_ = 0;
  std::size_t size_ = 0;  // registered thread count
};

}  // namespace elision::sim

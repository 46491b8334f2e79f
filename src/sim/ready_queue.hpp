// Incrementally-maintained min/argmin index over per-thread virtual clocks.
//
// The scheduler needs, once per scheduling decision, the smallest clock
// among runnable threads and the id of its first holder (lowest tid wins
// ties). The seed implementation swept all N clocks per access with a
// data-dependent argmin branch — O(N) work and a mispredict-heavy loop that
// dominated the profile on big simulated machines.
//
// Two shapes, split by thread count:
//
// Machines of at most one group (<= 16 threads, which covers the paper's
// 8-hyperthread i7 and every historical bench point) keep the live tids in
// a 16-slot ring sorted by (clock, tid) from its head. min_entry() reads the
// head, so the pick and the preemption-bound recompute of a context switch
// are O(1); the batching scheduler's switch is exchange() with the incoming
// thread at the head: the head advances one slot (an O(1) pop-front) and
// the outgoing thread is inserted by scanning from the back, which in the
// usual round-robin case (the outgoing clock is the largest) is a single
// compare. (clock, tid) order puts the lowest tid first among equal clocks,
// which is exactly the seed sweep's first-index-wins tie-break.
//
// Larger machines use a flat array-backed tournament tree of arity
// kGroupSize (16): clocks live in one dense array padded to a multiple of
// the group size with the finished sentinel; each group of 16 consecutive
// tids caches its (min, argmin) pair, and the root caches the winner across
// groups. An update rescans only the updated thread's group and the
// per-group minima — two short contiguous scans with independent compares
// (at most 16 + ceil(N/16) steps, so 32 for the 256-thread cap) instead of
// one long serial sweep — and the root query is O(1). (A sorted array at
// every size loses here: its insertions grow linearly with N.)
//
// Tie-break equivalence: the group scan keeps the first (lowest-index)
// holder of the group minimum, and the root scan keeps the first group
// holding the overall minimum. Lowest group of the winners + lowest index
// within the winning group is exactly the first-index-wins answer of the
// seed's linear sweep, so schedules are preserved bit-for-bit.
//
// Finished threads (and padding slots beyond size()) hold kFinishedClock,
// so they lose every comparison against a live thread (the sorted ring
// leaves them out altogether) and min_clock() degrades to the sentinel when
// nothing is runnable.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/check.hpp"
#include "support/inline.hpp"

namespace elision::sim {

class ReadyQueue {
 public:
  static constexpr std::uint64_t kFinishedClock =
      std::numeric_limits<std::uint64_t>::max();
  static constexpr std::size_t kGroupShift = 4;
  static constexpr std::size_t kGroupSize = 1u << kGroupShift;  // tree arity
  // Two levels of arity-16 nodes index up to 256 threads; a third level
  // would be needed beyond that (see kMaxSimThreads in machine_config.hpp).
  static constexpr std::size_t kMaxIndexable = kGroupSize * kGroupSize;

  // Registers the next thread id (clock 0) and returns it.
  int add_thread() {
    const int tid = static_cast<int>(size_);
    ELISION_CHECK_MSG(size_ < kMaxIndexable,
                      "ReadyQueue indexes at most kMaxIndexable threads");
    ++size_;
    if (clocks_.size() < size_) {
      clocks_.resize(clocks_.size() + kGroupSize, kFinishedClock);
      group_min_.push_back(kFinishedClock);
      group_tid_.push_back(tid);
    }
    clocks_[static_cast<std::size_t>(tid)] = 0;
    // Rebuild the index from scratch: set() maintains only the shape the
    // machine currently has, so growing it (including across the
    // sorted-array/tournament boundary) must leave the new shape coherent.
    rebuild();
    return tid;
  }

  // Updates tid's clock and the index. On a one-group machine this moves
  // tid's entry within the sorted ring (removing it for the sentinel,
  // inserting it when it leaves the sentinel). Callers: spawn, finish,
  // the scheduler's park of an incoming thread, and the per-access path
  // with switch-bound batching off.
  //
  // Two-level machines update the cached tournament levels above tid.
  // Scheduler clocks are monotonic, which buys the O(1) fast path: when a
  // clock moves up and its holder was not the cached argmin of its level,
  // no cached winner can change and the update is two compares. Rescans
  // happen only while the updated thread actually holds a minimum — i.e.
  // right after it was scheduled — so a thread running ahead of the pack
  // (yield slack, SMT penalty) updates in O(1) per access. Decreasing a
  // clock (rebuilds, unit tests) takes the full rescan path.
  // Must compile into SimThread::advance() (and from there into the engine's
  // charge functions) the way the seed's open-coded sweep did; the two-level
  // rescan stays out of line so it does not drag the caller over the
  // inliner's size budget.
  ELISION_ALWAYS_INLINE void set(int tid, std::uint64_t clock) {
    ELISION_DCHECK(static_cast<std::size_t>(tid) < size_);
    const std::size_t ti = static_cast<std::size_t>(tid);
    if (size_ <= kGroupSize) {
      sorted_set(tid, clock);
      return;
    }
    const bool moved_up = clock >= clocks_[ti];
    clocks_[ti] = clock;
    const std::size_t g = ti >> kGroupShift;
    if (moved_up && group_tid_[g] != tid) return;
    rescan_from_group(g, moved_up);
  }

  // Fused context-switch update for the batching scheduler: re-enters the
  // outgoing thread (whose slot sits at the sentinel) at its final clock and
  // parks the incoming thread — the current argmin — at the sentinel. On a
  // one-group machine that is a pop-front fused with one forward insertion;
  // on a two-level machine each touched group is repaired once and the root
  // once, instead of two set() calls that would each take the full
  // decrease/argmin rescan path. Runs once per context switch.
  void exchange(int out_tid, std::uint64_t out_clock, int in_tid) {
    ELISION_DCHECK(out_tid != in_tid);
    const std::size_t oi = static_cast<std::size_t>(out_tid);
    const std::size_t ii = static_cast<std::size_t>(in_tid);
    ELISION_DCHECK(clocks_[oi] == kFinishedClock &&
                   out_clock != kFinishedClock);
    clocks_[oi] = out_clock;
    clocks_[ii] = kFinishedClock;
    if (size_ <= kGroupSize) {
      ELISION_DCHECK(live_ > 0 && order_[head_].tid == in_tid);
      // Pop the incoming thread off the head; its slot becomes the free
      // slot one past the new back, which is where insertion starts.
      head_ = (head_ + 1) & kRingMask;
      place_from_back(live_ - 1, {out_clock, out_tid});
      return;
    }
    const std::size_t go = oi >> kGroupShift;
    const std::size_t gi = ii >> kGroupShift;
    // The incoming thread's clock rises to the sentinel, so its group needs
    // the full rescan (it held the group minimum — it was the global min).
    rescan_group(gi);
    if (go != gi) {
      // The outgoing thread re-enters a group whose cached (min, argmin)
      // was computed while it sat at the sentinel, so its clock can only
      // lower the minimum: an O(1) compare replaces the group rescan
      // (first-index-wins on ties, as everywhere).
      if (out_clock < group_min_[go] ||
          (out_clock == group_min_[go] && out_tid < group_tid_[go])) {
        group_min_[go] = out_clock;
        group_tid_[go] = out_tid;
      }
    }
    rescan_root();
  }

  // The (min clock, lowest holder tid) pair over all registered threads,
  // in O(1): the head of the sorted ring or the cached tournament root.
  // With no live thread it is {kFinishedClock, 0} on a one-group machine;
  // tid is only meaningful while some thread is live.
  struct Entry {
    std::uint64_t clock;
    std::int32_t tid;
  };
  ELISION_ALWAYS_INLINE Entry min_entry() const {
    ELISION_DCHECK(size_ > 0);
    if (size_ <= kGroupSize) {
      return live_ > 0 ? order_[head_] : Entry{kFinishedClock, 0};
    }
    return {root_min_, root_tid_};
  }

  // Smallest clock over all registered threads (kFinishedClock if none is
  // live).
  std::uint64_t min_clock() const {
    if (size_ == 0) return kFinishedClock;
    return min_entry().clock;
  }

  // Lowest tid holding min_clock(). Only meaningful while some thread is
  // live.
  int min_tid() const { return min_entry().tid; }

  std::uint64_t clock_of(int tid) const {
    return clocks_[static_cast<std::size_t>(tid)];
  }

  std::size_t size() const { return size_; }

 private:
  // Two-level slow path of set(): rescans tid's group and, when the root
  // could have changed, the per-group minima.
  ELISION_NOINLINE void rescan_from_group(std::size_t g, bool moved_up) {
    // Rescan the group: min pass without the data-dependent index (a
    // straight-line reduction), then first-index-of-min for the tie-break.
    // Padding sentinels never win, so scanning the full group is exact.
    const std::uint64_t* const base = clocks_.data() + (g << kGroupShift);
    std::uint64_t m = base[0];
    for (std::size_t i = 1; i < kGroupSize; ++i) {
      if (base[i] < m) m = base[i];
    }
    std::size_t mi = 0;
    while (base[mi] != m) ++mi;
    const std::int32_t gtid = static_cast<std::int32_t>((g << kGroupShift) + mi);
    if (m == group_min_[g] && gtid == group_tid_[g] && moved_up) return;
    group_min_[g] = m;
    group_tid_[g] = gtid;
    // The root must be rescanned when this group held it (its min moved) or
    // on a decrease (this group may now win). A group whose min only grew
    // cannot take the root from another group — including ties, because
    // first-group-wins already preferred any equal earlier group.
    if (moved_up && static_cast<std::size_t>(root_tid_) >> kGroupShift != g) {
      return;
    }
    const std::size_t groups = group_min_.size();
    std::uint64_t rm = group_min_[0];
    for (std::size_t i = 1; i < groups; ++i) {
      if (group_min_[i] < rm) rm = group_min_[i];
    }
    std::size_t rg = 0;
    while (group_min_[rg] != rm) ++rg;
    root_min_ = rm;
    root_tid_ = group_tid_[rg];
  }

  // Recomputes one group's cached (min, argmin) from its clocks.
  void rescan_group(std::size_t g) {
    const std::uint64_t* const base = clocks_.data() + (g << kGroupShift);
    std::uint64_t m = base[0];
    for (std::size_t i = 1; i < kGroupSize; ++i) {
      if (base[i] < m) m = base[i];
    }
    std::size_t mi = 0;
    while (base[mi] != m) ++mi;
    group_min_[g] = m;
    group_tid_[g] = static_cast<std::int32_t>((g << kGroupShift) + mi);
  }

  // Recomputes the cached root winner from the per-group minima
  // (first-group-wins tie-break).
  void rescan_root() {
    const std::size_t groups = group_min_.size();
    std::uint64_t rm = group_min_[0];
    for (std::size_t i = 1; i < groups; ++i) {
      if (group_min_[i] < rm) rm = group_min_[i];
    }
    std::size_t rg = 0;
    while (group_min_[rg] != rm) ++rg;
    root_min_ = rm;
    root_tid_ = group_tid_[rg];
  }

  // Ring order: (clock, tid) lexicographic.
  static bool before(const Entry& a, const Entry& b) {
    return a.clock < b.clock || (a.clock == b.clock && a.tid < b.tid);
  }

  // The k-th live entry of the ring, counted from the head (k < kGroupSize).
  Entry& at(std::size_t k) { return order_[(head_ + k) & kRingMask]; }

  // One-group set(): moves tid's entry to its new sorted position, or drops
  // it for the sentinel / inserts it when it leaves the sentinel. Out of
  // line so set() stays a few instructions at every inlined tick site.
  ELISION_NOINLINE void sorted_set(int tid, std::uint64_t clock) {
    const std::size_t ti = static_cast<std::size_t>(tid);
    const bool was_live = clocks_[ti] != kFinishedClock;
    clocks_[ti] = clock;
    if (!was_live) {
      if (clock == kFinishedClock) return;
      place_from_back(live_++, {clock, tid});
      return;
    }
    std::size_t k = 0;
    while (at(k).tid != tid) ++k;
    if (clock == kFinishedClock) {
      for (--live_; k < live_; ++k) at(k) = at(k + 1);
      return;
    }
    // Slot k is free: move it forward past smaller entries, then insert
    // backwards (only one of the two loops moves anything).
    for (; k + 1 < live_ && before(at(k + 1), {clock, tid}); ++k) {
      at(k) = at(k + 1);
    }
    place_from_back(k, {clock, tid});
  }

  // Slot k of the ring is free and every entry after it is not before e:
  // moves the free slot back past larger entries and stores e there.
  void place_from_back(std::size_t k, const Entry& e) {
    for (; k > 0 && before(e, at(k - 1)); --k) at(k) = at(k - 1);
    at(k) = e;
  }

  // Recomputes the index from the clocks alone: the sorted ring on a
  // one-group machine, every cached tournament level otherwise.
  void rebuild() {
    if (size_ <= kGroupSize) {
      live_ = 0;
      head_ = 0;
      for (std::size_t t = 0; t < size_; ++t) {
        const std::uint64_t c = clocks_[t];
        clocks_[t] = kFinishedClock;
        sorted_set(static_cast<int>(t), c);
      }
      return;
    }
    const std::size_t groups = group_min_.size();
    for (std::size_t g = 0; g < groups; ++g) {
      const std::uint64_t* const base = clocks_.data() + (g << kGroupShift);
      std::uint64_t m = base[0];
      for (std::size_t i = 1; i < kGroupSize; ++i) {
        if (base[i] < m) m = base[i];
      }
      std::size_t mi = 0;
      while (base[mi] != m) ++mi;
      group_min_[g] = m;
      group_tid_[g] = static_cast<std::int32_t>((g << kGroupShift) + mi);
    }
    std::uint64_t rm = group_min_[0];
    for (std::size_t i = 1; i < groups; ++i) {
      if (group_min_[i] < rm) rm = group_min_[i];
    }
    std::size_t rg = 0;
    while (group_min_[rg] != rm) ++rg;
    root_min_ = rm;
    root_tid_ = group_tid_[rg];
  }

  // clocks_[tid] for tid < size_; padding entries hold kFinishedClock so
  // they never beat a live thread.
  std::vector<std::uint64_t> clocks_;
  // Cached (min, argmin) per group of kGroupSize consecutive tids, plus the
  // root winner across groups. group_tid_ holds absolute tids.
  std::vector<std::uint64_t> group_min_;
  std::vector<std::int32_t> group_tid_;
  std::uint64_t root_min_ = kFinishedClock;
  std::int32_t root_tid_ = -1;
  // One-group machines: the live (non-sentinel) threads, a ring sorted by
  // (clock, tid) from order_[head_], the argmin.
  static constexpr std::size_t kRingMask = kGroupSize - 1;
  std::array<Entry, kGroupSize> order_{};
  std::size_t head_ = 0;
  std::size_t live_ = 0;
  std::size_t size_ = 0;  // registered thread count
};

}  // namespace elision::sim

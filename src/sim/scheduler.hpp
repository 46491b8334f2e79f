// Deterministic virtual-time scheduler for simulated threads.
//
// Each logical thread of the simulated machine is a fiber with a virtual
// clock measured in CPU cycles. The scheduler always resumes the runnable
// thread with the smallest clock (ties broken by thread id), which makes the
// interleaving of the simulated parallel execution deterministic while
// faithfully modeling true concurrency: clocks advance independently, so
// non-conflicting work overlaps in virtual time.
//
// Hot-path layout: the tick path (advance + maybe_yield) runs once per
// simulated memory access, tens of millions of times per benchmark point, so
// its state is kept flat. With switch-bound batching (the default) an access
// is one compare against a preemption bound cached at the last context
// switch. Per-tid clocks (finished threads and the running thread hold a
// max-uint64 sentinel) live in a ReadyQueue whose (min, argmin) read is O(1)
// — a ring sorted by (clock, tid) on machines of up to 16 threads, an
// arity-16 tournament tree above that — so a scheduling decision costs a
// head read, an O(1) pop and one re-insertion scanned from the back. While
// no thread is parked in a spin-wait (below), a switch goes straight to
// the picked thread without the parked-waiter replay. Hyperthreading is a
// per-core 0/1 flag maintained at spawn/finish instead of an O(threads)
// sibling scan per advance, and an advance of a small cycle count reads its
// scaled delta from a table built at construction instead of a double
// multiply and two conversions.
//
// Spin-waiters (tsx::Engine::spin_while) park here: a thread that yields
// inside a tick of a spin loop (its PAUSE, or a load with no side effect)
// hands the scheduler a SpinWait, and while its next load would have no
// side effect either the scheduler replays the loop's ticks itself instead
// of switching to the fiber. No other thread runs during a replay, so once
// its first load is quiet every later one is: the replay probes quiet()
// once and moves the waiter's clock in one jump to the tick at which the
// literal loop would cross the preemption bound (O(1) however many ticks
// that skips). The schedule is unchanged, and replays are not counted as
// context switches.
//
// Usage:
//   Scheduler sched(config);
//   sched.spawn([&](SimThread& t) { ... t.advance(c); t.maybe_yield(); ... });
//   sched.run_for(config.cycles(0.010));   // 10 simulated milliseconds
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/machine_config.hpp"
#include "sim/ready_queue.hpp"
#include "support/inline.hpp"
#include "support/check.hpp"
#include "support/function_ref.hpp"
#include "support/rng.hpp"

namespace elision::sim {

class Scheduler;

// A spin-wait loop `while (pred(load(word))) pause();` handed to the
// scheduler at a yield inside one of its ticks (SimThread::spin_tick): the
// PAUSE tick, or the tick of a quiet load. While the thread is parked the
// scheduler may run the loop's remaining iterations itself; it resumes the
// fiber only for a load that `quiet` rejects.
struct SpinWait {
  // True iff the waiter's next load would only tick load_cycles and leave it
  // spinning: the line has no transactional writer, the waiter holds a
  // cached copy, and the predicate still holds for the word's value.
  support::FunctionRef<bool()> quiet;
  std::uint64_t load_cycles;   // the load's tick (an L1 hit)
  std::uint64_t pause_cycles;  // the PAUSE tick
  // Phase: true if the waiter's next step is the load, false if it is the
  // PAUSE tick (the last load was quiet). Shared by the fiber's loop and
  // the scheduler's replay, so the fiber resumes where a replay left off.
  bool load_next = true;
};

// One logical thread of the simulated machine. Workload code receives a
// reference and calls advance()/maybe_yield() (usually indirectly, through
// the tsx shared-memory API).
class SimThread {
 public:
  SimThread(Scheduler& sched, int tid, std::uint64_t seed,
            std::function<void(SimThread&)> body, std::size_t stack_bytes);

  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  int tid() const { return tid_; }
  std::uint64_t now() const { return vclock_; }
  bool finished() const { return finished_; }
  Scheduler& scheduler() { return sched_; }
  support::Xoshiro256& rng() { return rng_; }

  // Advances this thread's virtual clock by `cycles` scaled by the
  // hyperthreading model (a live sibling slows both siblings down),
  // saturating at the largest live clock instead of wrapping past the
  // finished sentinel. Defined below Scheduler (touches its flat clock
  // array).
  ELISION_ALWAYS_INLINE void advance(std::uint64_t cycles);

  // Yields if this thread has run ahead of the earliest runnable thread by
  // more than the configured slack. Defined below Scheduler.
  ELISION_ALWAYS_INLINE void maybe_yield();

  // Unconditionally yields to the scheduler.
  void yield();

  // A tick of a spin-wait loop (its PAUSE, or a quiet load), after which
  // the loop's next step is the load iff `load_next`: tick(cycles), except
  // that a yield here parks the thread on `w` (see SpinWait). Only valid
  // while Scheduler::spin_parking() holds. Defined below Scheduler.
  ELISION_ALWAYS_INLINE void spin_tick(SpinWait& w, std::uint64_t cycles,
                                       bool load_next);

  // Fails unless one round of a spin loop on this thread (a load of
  // `load_cycles`, then a PAUSE of `pause_cycles`) advances its clock: a
  // round that scales to 0 cycles never crosses a preemption bound, so the
  // waiter would spin forever. Called once at the start of a wait.
  void check_spin_round(std::uint64_t load_cycles,
                        std::uint64_t pause_cycles) const;

  // Convenience: advance then maybe_yield. This is the hook the shared-memory
  // layer calls once per simulated memory access — and therefore the
  // perturbation point of the schedule-exploration stress subsystem
  // (src/stress): with PerturbConfig enabled, a random extra delay may be
  // injected here before the yield decision.
  ELISION_ALWAYS_INLINE void tick(std::uint64_t cycles) {
    advance(cycles);
    if (sched_perturb_enabled_) maybe_perturb();
    maybe_yield();
  }

  // True once the scheduler's virtual deadline has passed; benchmark loops
  // exit at the next operation boundary.
  bool stop_requested() const;

  // Slot for the TSX layer to attach its per-thread transaction context.
  void* user_data = nullptr;

 private:
  friend class Scheduler;
  static void entry(void* self);

  // Slow path of tick(): draws from the perturbation RNG and, budget
  // permitting, jumps this thread's clock forward by a random delay.
  void maybe_perturb();

  // Saturating slow path of advance(): full-range SMT scaling with overflow
  // checks on both the double->uint64 conversion and the clock addition.
  ELISION_NOINLINE void advance_slow(std::uint64_t cycles);

  Scheduler& sched_;
  const int tid_;
  const unsigned core_;  // tid % n_cores, fixed at spawn
  std::uint64_t vclock_ = 0;
  bool finished_ = false;
  SpinWait* spin_ = nullptr;  // non-null while parked in a spin-wait
  const bool sched_perturb_enabled_;
  support::Xoshiro256 rng_;
  support::Xoshiro256 perturb_rng_;
  std::function<void(SimThread&)> body_;
  Fiber fiber_;
};

class Scheduler {
 public:
  explicit Scheduler(MachineConfig config = {});
  ~Scheduler();

  const MachineConfig& config() const { return config_; }

  // Creates a logical thread. Must be called before run()/run_for().
  SimThread& spawn(std::function<void(SimThread&)> body);

  // Runs until every thread finishes.
  void run();

  // Sets the virtual deadline (threads observe stop_requested() once their
  // clock passes it), then runs until every thread finishes.
  void run_for(std::uint64_t deadline_cycles);

  std::size_t thread_count() const { return threads_.size(); }
  SimThread& thread(std::size_t i) { return *threads_[i]; }

  // Largest virtual clock reached by any thread: the simulated wall time.
  // Maintained incrementally (clocks are monotonic), so this is O(1) rather
  // than a rescan of every thread. Under switch-bound batching the running
  // thread folds its clock into max_clock_ only at switch points, so account
  // for it here explicitly.
  std::uint64_t elapsed_cycles() const {
    if (current_ != nullptr && current_->vclock_ > max_clock_) {
      return current_->vclock_;
    }
    return max_clock_;
  }

  std::uint64_t deadline() const { return deadline_; }
  std::uint64_t switch_count() const { return switches_; }

  // Perturbations injected so far (see PerturbConfig). The stress driver
  // reads this after a failing run to seed budget minimization.
  std::uint64_t perturb_points_used() const { return perturb_points_; }

  // Consumes one unit of the perturbation budget; false when exhausted.
  bool consume_perturb_point() {
    if (config_.perturb.max_points != 0 &&
        perturb_points_ >= config_.perturb.max_points) {
      return false;
    }
    ++perturb_points_;
    return true;
  }

  // The thread currently executing, or nullptr when the host context runs.
  SimThread* current() { return current_; }

  // Smallest clock among runnable threads (max uint64 if none). Finished
  // threads hold the sentinel in the ready queue, so this is the root read —
  // plus the running thread, whose slot is parked at the sentinel while
  // switch-bound batching is on.
  std::uint64_t min_runnable_clock() const {
    const std::uint64_t m = ready_.min_clock();
    if (current_ != nullptr && current_->vclock_ < m) return current_->vclock_;
    return m;
  }

  // Times the cached preemption bound was recomputed (one per context switch
  // under batching; 0 with batching off). Exported as fast-path telemetry.
  std::uint64_t switch_bound_recomputes() const { return bound_recomputes_; }

  // Whether spin-waiters may park (SimThread::spin_tick): only under
  // switch-bound batching, and never with schedule perturbation, whose RNG
  // draws at every tick a replay would skip.
  bool spin_parking() const { return spin_parking_; }

  // advance() reads its SMT-scaled delta from a table for cycle counts
  // below this bound (every per-access cost of the cost model is far below
  // it); larger counts take the checked double path.
  static constexpr std::uint64_t kSmtMemoCycles = 256;

  // --- internal, used by SimThread ---
  void yield_from(SimThread& t);
  [[noreturn]] void finish_from(SimThread& t);

 private:
  friend class SimThread;

  static constexpr std::uint64_t kFinishedClock = ReadyQueue::kFinishedClock;

  SimThread* pick_next() const;  // earliest-clock runnable thread
  // Counted switch directly to a known next thread (the fused tick path has
  // already computed the argmin; skips the second scan of yield_from).
  void switch_counted(SimThread& t, SimThread& next) {
    // Counted unconditionally (mirrors yield_from) so that max_switches also
    // catches a thread yielding forever without advancing its clock.
    ++switches_;
    ELISION_CHECK_MSG(
        config_.max_switches == 0 || switches_ < config_.max_switches,
        "simulation exceeded max_switches (livelock?)");
    current_ = &next;
    Fiber::switch_to(t.fiber_, next.fiber_);
  }
  void switch_from_host();
  // Batching slow path of maybe_yield(): the running thread crossed the
  // cached preemption bound. Re-enters its clock into the ready queue, picks
  // the new argmin, parks that thread's slot, refreshes the bound and
  // switches. Out-of-line: it runs once per context switch, not per access.
  ELISION_NOINLINE void yield_over_bound(SimThread& t);
  // Slow path of spin_tick(): parks t on `w`, then yields as above.
  ELISION_NOINLINE void park_over_bound(SimThread& t, SpinWait& w);
  // `next` was just picked (its slot parked, the bound computed for it).
  // While it is a parked spin-waiter other than `self`, replays its loop
  // and, each time it yields, re-enters it and picks again. Returns the
  // thread to run, unparked: `self` itself means no switch is needed.
  SimThread& resolve(SimThread& next, const SimThread* self);
  // Runs a parked waiter's loop until it yields (true) or its next load
  // needs the fiber (false). It probes quiet() once, at the first load: the
  // ticks after it form a fixed load/PAUSE sequence, so the clock jumps to
  // the tick that crosses the bound.
  bool replay(SimThread& p);
  // replay() jumps only below this bound (and for tick costs inside the SMT
  // table), where no tick it stands in for can reach advance()'s saturating
  // path; above it, it steps the ticks one at a time.
  static constexpr std::uint64_t kJumpBoundLimit = std::uint64_t{1} << 62;
  // Called with every runnable thread parked: fails if none of them can
  // ever stop spinning.
  void check_not_deadlocked() const;
  // Caches the preemption bound the incoming thread will run against: min
  // clock of everyone else (its own slot is parked at the sentinel) plus the
  // yield slack, saturated so a lone thread (sentinel min) never yields.
  // Counted unless it only serves a replay.
  void recompute_bound(bool counted = true) {
    const std::uint64_t m = ready_.min_clock();
    switch_bound_ = m >= kFinishedClock - config_.yield_slack_cycles
                        ? kFinishedClock
                        : m + config_.yield_slack_cycles;
    if (counted) ++bound_recomputes_;
  }
  // Parks `next`'s ready-queue slot at the sentinel (its live clock now
  // lives only in vclock_) and refreshes the cached bound.
  void park_and_bound(SimThread& next) {
    ready_.set(next.tid_, kFinishedClock);
    recompute_bound();
  }
  // Batching context switch: folds the outgoing thread's clock back into the
  // ready queue and the running max, parks the incoming thread and refreshes
  // the bound — one fused queue repair instead of two full set() rescans.
  void exchange_and_bound(SimThread& out, SimThread& next,
                          bool counted = true) {
    ready_.exchange(out.tid_, out.vclock_, next.tid_);
    if (out.vclock_ > max_clock_) max_clock_ = out.vclock_;
    recompute_bound(counted);
  }
  // Recomputes core_smt_[core] from core_active_[core] (spawn/finish).
  void update_core_smt(unsigned core) {
    core_smt_[core] = config_.smt_per_core > 1 && core_active_[core] >= 2;
  }

  MachineConfig config_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  // ready_.clock_of(tid) mirrors threads_[tid]->vclock_ while the thread is
  // runnable and holds kFinishedClock once it finishes; the tournament tree
  // over those clocks is the single min/argmin implementation every consumer
  // (tick path, pick_next, min_runnable_clock) reads. Under switch-bound
  // batching the *running* thread's slot is additionally parked at the
  // sentinel, so min_clock() is the min over the other runnable threads —
  // a value that cannot change while the current thread runs, which is what
  // makes caching switch_bound_ across accesses exact.
  ReadyQueue ready_;
  // Cached preemption bound of the running thread (batching only): min
  // other-thread clock + yield slack, recomputed at every context switch.
  std::uint64_t switch_bound_ = kFinishedClock;
  std::uint64_t bound_recomputes_ = 0;
  // config_.batch_switch_bound, copied next to the tick-path state.
  bool batch_ = true;
  bool spin_parking_ = false;
  std::size_t parked_ = 0;  // threads parked in a spin-wait
  // Running max of every clock ever set: elapsed_cycles() without a rescan.
  std::uint64_t max_clock_ = 0;
  // Live threads per core, and whether a live sibling slows the core down
  // (1: advance() scales by smt_slowdown), maintained at spawn and finish.
  std::vector<unsigned> core_active_;
  std::vector<std::uint8_t> core_smt_;
  // advance()'s delta for c < kSmtMemoCycles: smt_memo_[0][c] == c and
  // smt_memo_[1][c] == (uint64)((double)c * smt_slowdown), the exact
  // expression the table replaces. Built once at construction.
  std::array<std::array<std::uint64_t, kSmtMemoCycles>, 2> smt_memo_{};
  Fiber host_;
  SimThread* current_ = nullptr;
  std::uint64_t deadline_ = UINT64_MAX;
  std::uint64_t switches_ = 0;
  std::uint64_t perturb_points_ = 0;
  std::size_t runnable_ = 0;
  bool running_ = false;
};

// --- SimThread tick-path inlines (need the Scheduler definition) ---

ELISION_ALWAYS_INLINE void SimThread::advance(std::uint64_t cycles) {
  // Saturate instead of wrapping: casting a double >= 2^64 to uint64_t is
  // undefined, and a wrapped clock near kFinishedClock (reachable through a
  // perturbation jump) would re-sort this thread to the front of the
  // schedule; a live thread also must never hold the finished sentinel
  // itself. Per-access cycle counts sit below the table bound and live
  // clocks far below 2^63, so the two checks cost two always-predicted
  // integer branches and the fast path is one unchecked addition of the
  // scaled delta, read from the table the seed's multiply was folded into
  // (bit-identical: each entry is that multiply's result).
  if (cycles >= Scheduler::kSmtMemoCycles ||
      static_cast<std::int64_t>(vclock_) < 0) [[unlikely]] {
    advance_slow(cycles);
  } else {
    vclock_ += sched_.smt_memo_[sched_.core_smt_[core_]][cycles];
  }
  if (sched_.batch_) return;  // slot is parked; maybe_yield compares against
                              // the cached switch bound instead
  sched_.ready_.set(tid_, vclock_);
  if (vclock_ > sched_.max_clock_) sched_.max_clock_ = vclock_;
}

ELISION_ALWAYS_INLINE void SimThread::maybe_yield() {
  if (sched_.batch_) {
    // One compare against the bound cached at switch-in. Equivalent to the
    // legacy condition below: the bound is min-over-others + slack, and
    // `vclock_ > min(vclock_, others) + slack` can only fire via the others
    // term (a clock never exceeds itself plus a non-negative slack).
    if (vclock_ > sched_.switch_bound_) [[unlikely]] {
      sched_.yield_over_bound(*this);
    }
    return;
  }
  // The ready queue hands back the minimum runnable clock (the yield
  // condition) and its lowest-tid holder (the thread to resume) — the same
  // (min, argmin) the old fused sweep produced.
  const ReadyQueue::Entry best = sched_.ready_.min_entry();
  if (vclock_ > best.clock + sched_.config_.yield_slack_cycles) {
    // best.clock < vclock_ and clock_of(tid_) == vclock_, so best.tid is
    // never this thread.
    sched_.switch_counted(
        *this, *sched_.threads_[static_cast<std::size_t>(best.tid)]);
  }
}

ELISION_ALWAYS_INLINE void SimThread::spin_tick(SpinWait& w,
                                                std::uint64_t cycles,
                                                bool load_next) {
  ELISION_DCHECK(sched_.spin_parking_);
  w.load_next = load_next;
  advance(cycles);
  if (vclock_ > sched_.switch_bound_) [[unlikely]] {
    sched_.park_over_bound(*this, w);
  }
}

inline bool SimThread::stop_requested() const {
  return vclock_ >= sched_.deadline_;
}

}  // namespace elision::sim

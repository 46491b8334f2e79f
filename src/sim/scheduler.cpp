#include "sim/scheduler.hpp"

#include <exception>
#include <limits>

namespace elision::sim {

SimThread::SimThread(Scheduler& sched, int tid, std::uint64_t seed,
                     std::function<void(SimThread&)> body,
                     std::size_t stack_bytes)
    : sched_(sched),
      tid_(tid),
      core_(static_cast<unsigned>(tid) % sched.config().n_cores),
      sched_perturb_enabled_(sched.config().perturb.probability > 0),
      rng_(seed),
      perturb_rng_(sched.config().perturb.seed * 0xA0761D6478BD642FULL +
                   0xE7037ED1A0B428DBULL * static_cast<std::uint64_t>(tid + 1)),
      body_(std::move(body)),
      fiber_(&SimThread::entry, this, stack_bytes) {}

void SimThread::entry(void* self) {
  Fiber::on_fiber_entry();  // ASan stack-switch bookkeeping; no-op otherwise
  auto* t = static_cast<SimThread*>(self);
  try {
    t->body_(*t);
  } catch (const std::exception& e) {
    ELISION_CHECK_MSG(false, e.what());
  } catch (...) {
    ELISION_CHECK_MSG(false, "unknown exception escaped a simulated thread");
  }
  t->sched_.finish_from(*t);  // never returns
}

void SimThread::yield() { sched_.yield_from(*this); }

void SimThread::advance_slow(std::uint64_t cycles) {
  const double scaled =
      static_cast<double>(cycles) *
      (sched_.core_smt_[core_] ? sched_.config_.smt_slowdown : 1.0);
  std::uint64_t delta;
  if (scaled >= 18446744073709551616.0 /* 2^64 */) {
    delta = Scheduler::kFinishedClock;
  } else {
    delta = static_cast<std::uint64_t>(scaled);
  }
  if (delta >= Scheduler::kFinishedClock - 1 - vclock_) {
    vclock_ = Scheduler::kFinishedClock - 1;
  } else {
    vclock_ += delta;
  }
}

void SimThread::check_spin_round(std::uint64_t load_cycles,
                                 std::uint64_t pause_cycles) const {
  // advance() adds (uint64)(c * s) for c cycles at slowdown s, which is
  // nonzero iff c * s >= 1. The SMT flag can only drop during a run, and a
  // round that costs something scaled costs something unscaled, so one
  // check at the start of a wait covers all of it.
  const double s = sched_.core_smt_[core_] ? sched_.config_.smt_slowdown : 1.0;
  ELISION_CHECK_MSG(static_cast<double>(load_cycles) * s >= 1.0 ||
                        static_cast<double>(pause_cycles) * s >= 1.0,
                    "a spin-wait round (load + PAUSE) advances the clock by "
                    "0 cycles at this smt_slowdown: the waiter would spin "
                    "forever");
}

void SimThread::maybe_perturb() {
  const PerturbConfig& p = sched_.config().perturb;
  if (!perturb_rng_.next_bool(p.probability)) return;
  if (!sched_.consume_perturb_point()) return;
  // The delay alone changes the interleaving: the earliest-first scheduler
  // re-sorts this thread behind everyone it jumped over at the maybe_yield()
  // that follows in tick().
  advance(1 + perturb_rng_.next_below(p.max_delay_cycles));
}

Scheduler::Scheduler(MachineConfig config)
    : config_(config),
      batch_(config.batch_switch_bound),
      spin_parking_(config.batch_switch_bound &&
                    !(config.perturb.probability > 0)) {
  ELISION_CHECK(config_.n_cores >= 1);
  // advance()'s fast path adds a table entry to a clock below 2^63 with no
  // saturation check. Every entry stays below kSmtMemoCycles * 2^44 = 2^52
  // at any slowdown this admits, so the sum cannot wrap or reach the
  // finished sentinel.
  ELISION_CHECK_MSG(config_.smt_slowdown >= 0.0 &&
                        config_.smt_slowdown < 17592186044416.0 /* 2^44 */,
                    "smt_slowdown must lie in [0, 2^44)");
  for (std::uint64_t c = 0; c < kSmtMemoCycles; ++c) {
    smt_memo_[0][c] = c;
    smt_memo_[1][c] = static_cast<std::uint64_t>(static_cast<double>(c) *
                                                 config_.smt_slowdown);
  }
  core_active_.assign(config_.n_cores, 0);
  core_smt_.assign(config_.n_cores, 0);
}

Scheduler::~Scheduler() {
  // All fibers must have run to completion; destroying a suspended fiber
  // would leak whatever RAII state lives on its stack.
  for (const auto& t : threads_) {
    ELISION_CHECK_MSG(t->finished(),
                      "Scheduler destroyed with unfinished simulated threads");
  }
}

SimThread& Scheduler::spawn(std::function<void(SimThread&)> body) {
  ELISION_CHECK_MSG(!running_, "spawn() during run() is not supported");
  const int tid = static_cast<int>(threads_.size());
  ELISION_CHECK_MSG(tid < kMaxSimThreads,
                    "at most kMaxSimThreads simulated threads");
  threads_.push_back(std::make_unique<SimThread>(
      *this, tid, config_.seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL * (tid + 1),
      std::move(body), config_.fiber_stack_bytes));
  const int ready_tid = ready_.add_thread();
  ELISION_CHECK(ready_tid == tid);
  ++runnable_;
  SimThread& t = *threads_.back();
  ++core_active_[t.core_];
  update_core_smt(t.core_);
  return t;
}

SimThread* Scheduler::pick_next() const {
  if (runnable_ == 0) return nullptr;
  return threads_[static_cast<std::size_t>(ready_.min_tid())].get();
}

void Scheduler::yield_from(SimThread& t) {
  // Counted before the same-thread early-out so that max_switches also
  // catches a thread yielding forever without advancing its clock.
  ++switches_;
  ELISION_CHECK_MSG(config_.max_switches == 0 || switches_ < config_.max_switches,
                    "simulation exceeded max_switches (livelock?)");
  if (batch_) {
    // The caller's slot is parked, so the queue's (min, argmin) covers the
    // other threads only. Reproduce the global first-index-wins pick: an
    // other thread beats the caller only with a strictly smaller clock, or
    // an equal clock and a lower tid (a sentinel min means no other runnable
    // thread, so the caller keeps running either way).
    const ReadyQueue::Entry best = ready_.min_entry();
    if (best.clock > t.vclock_ ||
        (best.clock == t.vclock_ && best.tid > t.tid_)) {
      return;
    }
    SimThread& picked = *threads_[static_cast<std::size_t>(best.tid)];
    exchange_and_bound(t, picked);
    SimThread& next = parked_ == 0 ? picked : resolve(picked, &t);
    current_ = &next;
    if (&next != &t) Fiber::switch_to(t.fiber_, next.fiber_);
    return;
  }
  SimThread* next = pick_next();
  ELISION_DCHECK(next != nullptr);  // t itself is runnable
  if (next == &t) return;
  current_ = next;
  Fiber::switch_to(t.fiber_, next->fiber_);
}

void Scheduler::yield_over_bound(SimThread& t) {
  // Counted unconditionally (mirrors switch_counted) so that max_switches
  // also catches a thread yielding forever without advancing its clock.
  ++switches_;
  ELISION_CHECK_MSG(config_.max_switches == 0 || switches_ < config_.max_switches,
                    "simulation exceeded max_switches (livelock?)");
  // The bound fired, so some other runnable thread's clock sits at least a
  // slack below vclock_: the queue's (min, argmin) is a live thread and is
  // the global argmin (the caller's own clock is strictly larger, so it can
  // neither win nor tie).
  const ReadyQueue::Entry best = ready_.min_entry();
  ELISION_DCHECK(best.clock < t.vclock_);
  SimThread& picked = *threads_[static_cast<std::size_t>(best.tid)];
  exchange_and_bound(t, picked);
  // With no thread parked the pick is the thread to run: resolve() would
  // replay nothing and return it unchanged, so skip it.
  SimThread& next = parked_ == 0 ? picked : resolve(picked, &t);
  current_ = &next;
  if (&next != &t) Fiber::switch_to(t.fiber_, next.fiber_);
}

void Scheduler::park_over_bound(SimThread& t, SpinWait& w) {
  t.spin_ = &w;
  ++parked_;
  yield_over_bound(t);
}

SimThread& Scheduler::resolve(SimThread& next, const SimThread* self) {
  if (parked_ == runnable_) check_not_deadlocked();
  SimThread* p = &next;
  while (p->spin_ != nullptr && p != self && replay(*p)) {
    // p yielded at a replayed tick: exactly yield_over_bound's pick, minus
    // the fiber switch (and so not counted as one).
    const ReadyQueue::Entry best = ready_.min_entry();
    ELISION_DCHECK(best.clock < p->vclock_);
    SimThread& q = *threads_[static_cast<std::size_t>(best.tid)];
    exchange_and_bound(*p, q, /*counted=*/false);
    p = &q;
  }
  if (p->spin_ != nullptr) {
    // Its fiber resumes the literal loop (at a load: replay() stops only
    // there), or it is `self` and simply continues.
    p->spin_ = nullptr;
    --parked_;
  }
  return *p;
}

bool Scheduler::replay(SimThread& p) {
  SpinWait& w = *p.spin_;
  const std::uint64_t bound = switch_bound_;
  if (bound >= kJumpBoundLimit || w.load_cycles >= kSmtMemoCycles ||
      w.pause_cycles >= kSmtMemoCycles) [[unlikely]] {
    // The literal loop, tick by tick: advance, then maybe_yield's compare
    // against the bound (perturbation is off while parking).
    for (;;) {
      if (w.load_next) {
        if (!w.quiet()) return false;
        p.advance(w.load_cycles);
        w.load_next = false;
        if (p.vclock_ > bound) return true;
      }
      p.advance(w.pause_cycles);
      w.load_next = true;
      if (p.vclock_ > bound) return true;
    }
  }
  // The waiter was picked as the earliest thread, so its clock is at most
  // the bound (< 2^62), and each table entry is below 2^52: every tick the
  // literal loop would take is advance()'s unchecked table add.
  ELISION_DCHECK(p.vclock_ <= bound);
  const auto& scaled = smt_memo_[core_smt_[p.core_]];
  const std::uint64_t load = scaled[w.load_cycles];
  const std::uint64_t pause = scaled[w.pause_cycles];
  const std::uint64_t period = load + pause;
  std::uint64_t c = p.vclock_;
  if (!w.load_next) {  // the pending PAUSE
    c += pause;
    w.load_next = true;
    if (c > bound) {
      p.vclock_ = c;
      return true;
    }
  }
  if (!w.quiet()) {
    p.vclock_ = c;
    return false;
  }
  // No fiber runs during a replay, so memory cannot change: every later
  // load of this replay is quiet too, and the loop is a fixed sequence of
  // ticks, load, PAUSE, load, ..., until one crosses the bound. The first
  // round is stepped literally, so a short replay pays no division; past
  // it, jump to the last round that starts at or below the bound.
  if (c + period <= bound) {
    // SimThread::check_spin_round ruled out a round that costs nothing.
    ELISION_DCHECK(period > 0);
    c += period;
    c += (bound - c) / period * period;
  }
  // The round from c crosses the bound at its load or at its PAUSE.
  const bool load_crosses = c + load > bound;
  p.vclock_ = load_crosses ? c + load : c + period;
  w.load_next = !load_crosses;
  return true;
}

void Scheduler::check_not_deadlocked() const {
  // No fiber runs while every runnable thread is parked, so memory is frozen
  // and a waiter whose next load is quiet stays quiet forever.
  for (const auto& t : threads_) {
    if (t->spin_ != nullptr && !t->spin_->quiet()) return;
  }
  ELISION_CHECK_MSG(false,
                    "every simulated thread is spin-waiting (deadlock)");
}

void Scheduler::finish_from(SimThread& t) {
  t.finished_ = true;
  ready_.set(t.tid_, kFinishedClock);  // already parked there under batching
  // Under batching the final clock was never folded into the running max
  // (advance() skips it); a no-op otherwise.
  if (t.vclock_ > max_clock_) max_clock_ = t.vclock_;
  --runnable_;
  --core_active_[t.core_];
  update_core_smt(t.core_);
  ++switches_;
  SimThread* next = pick_next();
  if (next != nullptr && batch_) {
    park_and_bound(*next);
    next = &resolve(*next, nullptr);
  }
  current_ = next;
  if (next != nullptr) {
    Fiber::switch_to(t.fiber_, next->fiber_);
  } else {
    Fiber::switch_to(t.fiber_, host_);
  }
  ELISION_CHECK_MSG(false, "resumed a finished simulated thread");
  std::abort();
}

void Scheduler::switch_from_host() {
  SimThread* next = pick_next();
  if (next == nullptr) return;
  running_ = true;
  current_ = next;
  ++switches_;
  if (batch_) park_and_bound(*next);
  Fiber::switch_to(host_, next->fiber_);
  // Control returns here only when the last thread finished.
  current_ = nullptr;
  running_ = false;
}

void Scheduler::run() {
  deadline_ = std::numeric_limits<std::uint64_t>::max();
  switch_from_host();
}

void Scheduler::run_for(std::uint64_t deadline_cycles) {
  deadline_ = deadline_cycles;
  switch_from_host();
}

}  // namespace elision::sim

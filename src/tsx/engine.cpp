#include "tsx/engine.hpp"

#include <csetjmp>
#include <utility>

namespace elision::tsx {

using support::LineId;
using support::line_of;

Engine::Engine(sim::Scheduler& sched, TsxConfig config)
    : sched_(sched), config_(config), cost_(sched.config().cost) {}

TxContext& Engine::context(sim::SimThread& t) {
  const auto id = static_cast<std::size_t>(t.tid());
  if (id >= contexts_.size()) contexts_.resize(id + 1);
  if (!contexts_[id]) {
    contexts_[id] = std::make_unique<TxContext>(*this, t);
    // Pre-size the per-transaction state once so steady-state retry loops
    // never allocate (see MachineConfig's capacity hints).
    const sim::MachineConfig& m = sched_.config();
    contexts_[id]->read_lines_.reserve(m.tx_read_set_hint);
    contexts_[id]->write_lines_.reserve(m.tx_write_set_hint);
    contexts_[id]->wbuf_.reserve(m.tx_write_buffer_hint);
  }
  return *contexts_[id];
}

TxStats Engine::total_stats() const {
  TxStats total;
  for (const auto& c : contexts_) {
    if (c) total += c->stats();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Cost accounting / sharing model
// ---------------------------------------------------------------------------

void Engine::charge_read(Ctx& ctx, LineRecord& rec) {
  std::uint64_t cost;
  if (rec.copies.test(ctx.id())) {
    cost = cost_.l1_hit;
  } else if (rec.dirty_owner != kNoThread && rec.dirty_owner != ctx.id()) {
    cost = cost_.remote_transfer;
    rec.dirty_owner = kNoThread;  // dirty line written back, now shared
  } else {
    cost = cost_.llc_hit;
  }
  rec.copies.set(ctx.id());
  ctx.thread().tick(cost + cost_.access_compute);
}

void Engine::charge_write(Ctx& ctx, LineRecord& rec, bool is_rmw) {
  std::uint64_t cost;
  if (rec.copies.is_only(ctx.id()) && rec.dirty_owner == ctx.id()) {
    cost = cost_.l1_hit;  // already exclusive and dirty
  } else if (!rec.copies.any_other(ctx.id()) && rec.dirty_owner == kNoThread) {
    cost = cost_.llc_hit;  // upgrade, no other sharers
  } else {
    cost = cost_.remote_transfer;  // invalidate other copies
  }
  rec.copies.assign_only(ctx.id());
  rec.dirty_owner = ctx.id();
  ctx.thread().tick(cost + cost_.access_compute +
                    (is_rmw ? cost_.rmw_extra : 0));
}

// ---------------------------------------------------------------------------
// Protocol helpers
// ---------------------------------------------------------------------------

void Engine::release_ownership(Ctx& ctx) {
  // Set entries are stable record pointers (see TxContext::read_lines_):
  // one deref per line, no table probing or validation.
  for (LineRecord* rec : ctx.read_lines_) rec->readers.reset(ctx.id());
  for (LineRecord* rec : ctx.write_lines_) {
    if (rec->writer == ctx.id()) rec->writer = kNoThread;
  }
  ctx.read_lines_.clear();
  ctx.write_lines_.clear();
  ctx.l1_set_occupancy_.fill(0);
  // Every path that strips this context's reader/writer ownership funnels
  // through here (commit, self-abort, remote abort), so one epoch bump
  // invalidates all of its cached owned-line entries at once.
  ++ctx.own_epoch_;
}

void Engine::rollback_and_restore(Ctx& ctx, AbortCause cause,
                                  std::uint8_t code) {
  // Speculatively written lines are discarded from the owner's cache, as a
  // hardware abort invalidates them.
  for (LineRecord* rec : ctx.write_lines_) {
    rec->copies.reset(ctx.id());
    if (rec->dirty_owner == ctx.id()) rec->dirty_owner = kNoThread;
  }
  release_ownership(ctx);
  ctx.wbuf_.clear();
  unsigned st = status_of(cause, code);
  if (ctx.nest_depth_ > 1) st |= status::kNested;
  ctx.elided_ = false;
  ctx.elided_is_tx_root_ = false;
  ctx.lock_line_data_accessed_ = false;
  ctx.nest_depth_ = 0;
  ctx.state_ = TxState::kInactive;
  ctx.pending_cause_ = AbortCause::kNone;
  // Expose the abort feedback the paper's future-work section asks for.
  if (cause == AbortCause::kConflict) {
    ctx.last_conflict_line_ = ctx.pending_conflict_line_;
    ctx.last_conflict_thread_ = ctx.pending_conflict_thread_;
  } else {
    ctx.last_conflict_line_ = 0;
    ctx.last_conflict_thread_ = -1;
  }
  ctx.pending_conflict_line_ = 0;
  ctx.pending_conflict_thread_ = -1;
  ctx.last_abort_cause_ = cause;
  ctx.stats_.record_abort(cause);
  if (telemetry_ != nullptr) [[unlikely]] {
    telemetry_->record(
        {.timestamp = ctx.thread().now(),
         .line = ctx.last_conflict_line_,
         .thread = static_cast<std::int16_t>(ctx.id()),
         .other_thread = static_cast<std::int16_t>(ctx.last_conflict_thread_),
         .kind = EventKind::kTxAbort,
         .cause = cause});
  }
  ctx.thread().tick(cost_.abort_penalty);
  // Resume at the innermost checkpoint, popping it on the way.
  Checkpoint* cp = ctx.checkpoint_;
  ELISION_CHECK_MSG(cp != nullptr,
                    "transaction aborted outside any Engine::attempt: "
                    "begin transactions through run_transaction or a "
                    "region driver");
  ctx.checkpoint_ = cp->prev;
  cp->status = st;
  std::longjmp(cp->env, 1);
}

void Engine::abort_self(Ctx& ctx, AbortCause cause, std::uint8_t code) {
  ELISION_DCHECK(ctx.in_tx());
  rollback_and_restore(ctx, cause, code);
}

void Engine::abort_remote(int victim_id, AbortCause cause,
                          support::LineId line, int requester_id) {
  ELISION_DCHECK(victim_id >= 0 &&
                 static_cast<std::size_t>(victim_id) < contexts_.size());
  TxContext& victim = *contexts_[victim_id];
  ELISION_DCHECK(victim.state_ == TxState::kActive);
  // Requestor wins: the victim's ownerships are torn down immediately so the
  // requesting access proceeds; the victim observes the abort at its next
  // engine interaction (hardware would interrupt it at instruction
  // granularity — the difference is at most one non-memory instruction).
  for (LineRecord* rec : victim.write_lines_) {
    rec->copies.reset(victim.id());
    if (rec->dirty_owner == victim.id()) rec->dirty_owner = kNoThread;
  }
  release_ownership(victim);
  victim.state_ = TxState::kAbortMarked;
  victim.pending_cause_ = cause;
  victim.pending_conflict_line_ = line;
  victim.pending_conflict_thread_ = requester_id;
}


// Under kOldestWins, a transactional requester defers to an older owner by
// aborting itself; under kRequestorWins (Haswell) the owner is always the
// victim. Non-transactional requesters always win.
bool Engine::requester_must_yield(Ctx& requester, const TxContext& owner)
    const {
  return config_.conflict_policy == ConflictPolicy::kOldestWins &&
         owner.begin_time_ < requester.begin_time_;
}

void Engine::abort_readers(LineRecord& rec, LineId line, int except_id,
                           int requester_id) {
  // Iterate a snapshot in ascending id order: tearing a victim down clears
  // its reader bits in `rec` itself.
  ThreadSet victims = rec.readers;
  if (except_id >= 0) victims.reset(except_id);
  victims.for_each([&](int r) {
    TxContext& victim = *contexts_[r];
    if (config_.hardware_extension && victim.elided_ &&
        victim.elided_line_ == line && !victim.lock_line_data_accessed_) {
      // Chapter 7: a conflict on the elided lock's line is a synchronization
      // signal, not a data conflict — the speculator survives and will
      // suspend if it needs to grow its footprint while the lock is held.
      return;
    }
    abort_remote(r, AbortCause::kConflict, line, requester_id);
  });
}

void Engine::read_set_admit(Ctx& ctx, LineId /*line*/) {
  const std::size_t r = ctx.read_lines_.size();
  const std::size_t l1_lines =
      static_cast<std::size_t>(config_.l1_sets) * config_.l1_ways;
  if (r <= l1_lines) return;
  if (r > config_.l3_lines) abort_self(ctx, AbortCause::kCapacity);
  double p;
  if (r <= config_.l2_lines) {
    p = config_.read_evict_l2;
  } else {
    const double frac = static_cast<double>(r - config_.l2_lines) /
                        static_cast<double>(config_.l3_lines - config_.l2_lines);
    p = config_.read_evict_l2 +
        (config_.read_evict_l3_max - config_.read_evict_l2) * frac;
  }
  if (ctx.thread().rng().next_bool(p)) abort_self(ctx, AbortCause::kCapacity);
}

void Engine::write_set_admit(Ctx& ctx, LineId line) {
  auto& occupancy =
      ctx.l1_set_occupancy_[line % config_.l1_sets];
  if (++occupancy > config_.l1_ways) abort_self(ctx, AbortCause::kCapacity);
}

void Engine::hwext_wait_for_new_line(Ctx& ctx, const LineRecord& /*rec*/) {
  // State S (Ch. 7): the lock was taken non-speculatively; this speculator
  // may not grow its read/write set until the lock returns to its
  // pre-acquire value. It suspends (modeled as a monitored wait) rather than
  // aborting.
  const auto* lock_addr = reinterpret_cast<const void*>(ctx.elided_addr_);
  const std::uint64_t start = ctx.thread().now();
  while (read_word(lock_addr) != ctx.elided_original_) {
    if (ctx.thread().now() - start > config_.hwext_max_wait_cycles) {
      // The lock state never returned to its pre-elision value (possible
      // with queue locks); hardware would abort the waiter on a timer.
      abort_self(ctx, AbortCause::kConflict);
    }
    ctx.thread().tick(cost_.pause);
    ctx.thread().yield();
    poll(ctx);
  }
}

// ---------------------------------------------------------------------------
// Transactional accesses
// ---------------------------------------------------------------------------

std::uint64_t Engine::tx_load_slow(Ctx& ctx, const void* addr,
                                   std::uintptr_t key, LineId line,
                                   TxContext::CachedLine& cl) {
  // Record pointers are stable (chunked storage), so the memo needs only a
  // generation compare — no index probe, no re-fetch after yields. Gated on
  // the fast-path flag so ELISION_FASTPATH=0 zeroes every fastpath counter
  // and its output stays byte-identical to the pre-fastpath schema.
  LineRecord* rec;
  if (config_.owned_line_fastpath && cl.ref.line == line &&
      cl.ref.gen == table_.generation()) {
    rec = cl.ref.rec;
    ++ctx.stats_.fp_probe_skips;
  } else {
    rec = &table_.record(line, cl.ref);
  }
  const bool in_rset = rec->readers.test(ctx.id());
  if (config_.hardware_extension) {
    const bool in_footprint =
        in_rset || rec->writer == ctx.id() || rec->copies.test(ctx.id());
    if (ctx.elided_ && !in_footprint) {
      hwext_wait_for_new_line(ctx, *rec);
    }
  }
  if (rec->writer != kNoThread && rec->writer != ctx.id()) {
    // Our read request hits another transaction's write set. Under
    // requestor-wins the owner aborts and we read pre-transactional
    // memory; under oldest-wins we defer to an older owner.
    if (requester_must_yield(ctx, *contexts_[rec->writer])) {
      abort_self(ctx, AbortCause::kConflict);
    }
    abort_remote(rec->writer, AbortCause::kConflict, line, ctx.id());
  }
  if (!in_rset) {
    rec->readers.set(ctx.id());
    ctx.read_lines_.push_back(rec);
    read_set_admit(ctx, line);  // may abort self
  }
  if (ctx.elided_ && line == ctx.elided_line_ && key != ctx.elided_addr_) {
    ctx.lock_line_data_accessed_ = true;
  }
  const std::uint64_t value = read_word(addr);
  if (config_.owned_line_fastpath && !config_.hardware_extension) {
    // Reader bit held; writer is now self or none (a foreign writer was
    // aborted above, which cleared its slot). Full reassignment, never |=:
    // the entry may have cached a different line of the same epoch. Marked
    // before the charge: its tick may yield, and a remote abort during the
    // yield must land its epoch bump after this store (invalidating it).
    cl.owned_epoch = ctx.own_epoch_;
    cl.owned = static_cast<std::uint8_t>(
        Ctx::kOwnedRead | (rec->writer == ctx.id() ? Ctx::kOwnedWrite : 0));
  }
  charge_read(ctx, *rec);
  return value;
}

void Engine::tx_store_slow(Ctx& ctx, std::uint64_t value, std::uintptr_t key,
                           LineId line, TxContext::CachedLine& cl) {
  LineRecord* rec;
  if (config_.owned_line_fastpath && cl.ref.line == line &&
      cl.ref.gen == table_.generation()) {
    rec = cl.ref.rec;
    ++ctx.stats_.fp_probe_skips;
  } else {
    rec = &table_.record(line, cl.ref);
  }
  const bool in_wset = rec->writer == ctx.id();
  if (!in_wset) {
    if (config_.hardware_extension) {
      const bool in_footprint =
          rec->readers.test(ctx.id()) || rec->copies.test(ctx.id());
      if (ctx.elided_ && !in_footprint) {
        hwext_wait_for_new_line(ctx, *rec);
      }
    }
    if (rec->writer != kNoThread && rec->writer != ctx.id()) {
      if (requester_must_yield(ctx, *contexts_[rec->writer])) {
        abort_self(ctx, AbortCause::kConflict);
      }
      abort_remote(rec->writer, AbortCause::kConflict, line,
                   ctx.id());  // write-write
    }
    if (config_.conflict_policy == ConflictPolicy::kOldestWins) {
      // Defer to the oldest conflicting reader, if any is older than us
      // (abort_self does not return, exiting the scan like the break it
      // replaces).
      ThreadSet older = rec->readers;
      older.reset(ctx.id());
      older.for_each([&](int r) {
        if (requester_must_yield(ctx, *contexts_[r])) {
          abort_self(ctx, AbortCause::kConflict);
        }
      });
    }
    // Our write request (RFO) invalidates the line everywhere; transactions
    // holding it in their read set abort. Guarded: the common upgrade of a
    // line this tx already read (and nobody else did) has no victims, and
    // any_other is cheaper than snapshotting and scanning the reader set.
    if (rec->readers.any_other(ctx.id())) {
      abort_readers(*rec, line, ctx.id(), ctx.id());
    }
    rec->writer = ctx.id();
    ctx.write_lines_.push_back(rec);
    write_set_admit(ctx, line);  // may abort self (capacity)
  }
  if (ctx.elided_ && key == ctx.elided_addr_) {
    // Writing the elided lock word as data: from here on its line counts as
    // a data line (Ch. 7) and reads must see this buffered value.
    ctx.lock_line_data_accessed_ = true;
  }
  ctx.wbuf_.put(key, value);
  if (config_.owned_line_fastpath && !config_.hardware_extension) {
    // Writer slot held. Read-owned only if the reader bit is actually set:
    // a write-set line outside the read set still owes its first load the
    // reader-bit update, the read_lines_ entry and the admission check.
    // Marked before the charge — see tx_load.
    cl.owned_epoch = ctx.own_epoch_;
    cl.owned = static_cast<std::uint8_t>(
        Ctx::kOwnedWrite |
        (rec->readers.test(ctx.id()) ? Ctx::kOwnedRead : 0));
  }
  charge_write(ctx, *rec, /*is_rmw=*/false);
}

// ---------------------------------------------------------------------------
// Direct (non-transactional) accesses
// ---------------------------------------------------------------------------

std::uint64_t Engine::direct_load(Ctx& ctx, const void* addr) {
  const LineId line = line_of(addr);
  LineRecord& rec = table_.record(line, ctx.line_cache_for(line).ref);
  if (rec.writer != kNoThread) {
    // A plain read request for a line in a transaction's write set aborts
    // that transaction; the read sees pre-transactional memory.
    abort_remote(rec.writer, AbortCause::kConflict, line, ctx.id());
  }
  const std::uint64_t value = read_word(addr);
  charge_read(ctx, rec);
  return value;
}

template <typename F>
std::uint64_t Engine::direct_update(Ctx& ctx, void* addr, bool is_rmw, F&& f) {
  const LineId line = line_of(addr);
  LineRecord& rec = table_.record(line, ctx.line_cache_for(line).ref);
  if (rec.writer != kNoThread) {
    abort_remote(rec.writer, AbortCause::kConflict, line, ctx.id());
  }
  // This is the avalanche mechanism: a non-transactional write (e.g. a lock
  // acquisition after an abort) invalidates the lock's cache line in every
  // speculating reader, aborting them all — unless the Ch. 7 extension
  // recognizes it as a lock-line-only conflict.
  if (rec.readers.any()) abort_readers(rec, line, /*except_id=*/-1, ctx.id());
  const std::uint64_t old = read_word(addr);
  write_word(addr, f(old));
  charge_write(ctx, rec, is_rmw);
  return old;
}

// ---------------------------------------------------------------------------
// Plain access API (routed)
// ---------------------------------------------------------------------------

void Engine::direct_store(Ctx& ctx, void* addr, std::uint64_t value) {
  direct_update(ctx, addr, /*is_rmw=*/false,
                [value](std::uint64_t) { return value; });
}

std::uint64_t Engine::exchange(Ctx& ctx, void* addr, std::uint64_t value) {
  if (ctx.in_tx()) {
    const std::uint64_t old = tx_load(ctx, addr);
    tx_store(ctx, addr, value);
    ctx.thread().tick(cost_.rmw_extra);
    return old;
  }
  return direct_update(ctx, addr, /*is_rmw=*/true,
                       [value](std::uint64_t) { return value; });
}

std::uint64_t Engine::fetch_add(Ctx& ctx, void* addr, std::uint64_t delta) {
  if (ctx.in_tx()) {
    const std::uint64_t old = tx_load(ctx, addr);
    tx_store(ctx, addr, old + delta);
    ctx.thread().tick(cost_.rmw_extra);
    return old;
  }
  return direct_update(ctx, addr, /*is_rmw=*/true,
                       [delta](std::uint64_t v) { return v + delta; });
}

bool Engine::compare_exchange(Ctx& ctx, void* addr, std::uint64_t expected,
                              std::uint64_t desired) {
  if (ctx.in_tx()) {
    const std::uint64_t old = tx_load(ctx, addr);
    if (old != expected) return false;
    tx_store(ctx, addr, desired);
    ctx.thread().tick(cost_.rmw_extra);
    return true;
  }
  bool ok = false;
  direct_update(ctx, addr, /*is_rmw=*/true,
                [&](std::uint64_t v) {
                  ok = (v == expected);
                  return ok ? desired : v;
                });
  return ok;
}

// ---------------------------------------------------------------------------
// Transactions (RTM)
// ---------------------------------------------------------------------------

void Engine::begin_tx(Ctx& ctx) {
  ELISION_DCHECK(ctx.state_ == TxState::kInactive);
  ctx.state_ = TxState::kActive;
  ctx.nest_depth_ = 1;
  ctx.begin_time_ = ctx.thread().now();
  ++ctx.stats_.begins;
  note_event(ctx, EventKind::kTxBegin);
  ctx.thread().tick(cost_.xbegin);
  spurious_check(ctx, config_.spurious_per_begin);
}

void Engine::commit(Ctx& ctx) {
  ELISION_DCHECK(ctx.state_ != TxState::kInactive);
  // Charge the XEND cost first: the tick may yield, and a conflict arriving
  // during it must still abort us. After the final poll the publish/release
  // sequence performs no ticks, so it is atomic in the simulation.
  ctx.thread().tick(cost_.xend);
  poll(ctx);
  ctx.wbuf_.for_each(
      [](std::uintptr_t key, std::uint64_t v) {
        write_word(reinterpret_cast<void*>(key), v);
      });
  ctx.wbuf_.clear();
  release_ownership(ctx);
  ctx.elided_ = false;
  ctx.elided_is_tx_root_ = false;
  ctx.lock_line_data_accessed_ = false;
  ctx.nest_depth_ = 0;
  ctx.state_ = TxState::kInactive;
  ++ctx.stats_.commits;
  note_event(ctx, EventKind::kTxCommit);
}

unsigned Engine::run_transaction(Ctx& ctx,
                                 support::FunctionRef<void()> body) {
  if (ctx.in_tx()) {
    // Flat nesting: the inner transaction is subsumed; an abort anywhere
    // resumes at the outermost run_transaction's checkpoint.
    poll(ctx);
    ++ctx.nest_depth_;
    body();
    --ctx.nest_depth_;
    return kCommitted;
  }
  return attempt(ctx, [&] {
    begin_tx(ctx);
    body();
    commit(ctx);
  });
}

unsigned Engine::attempt(Ctx& ctx, support::FunctionRef<void()> body) {
  // Nothing in this frame is written after setjmp, so the restore sees
  // every local as it was at the checkpoint. The restore pops `cp` itself.
  Checkpoint cp;
  cp.prev = ctx.checkpoint_;
  ctx.checkpoint_ = &cp;
  if (setjmp(cp.env) != 0) return cp.status;
  body();
  ctx.checkpoint_ = cp.prev;
  return kCommitted;
}

void Engine::xabort(Ctx& ctx, std::uint8_t code) {
  ELISION_CHECK_MSG(ctx.in_tx(), "XABORT outside a transaction");
  abort_self(ctx, AbortCause::kExplicit, code);
}

void Engine::pause(Ctx& ctx) {
  if (ctx.in_tx()) {
    // Haswell aborts a transaction that executes PAUSE; this is what dooms a
    // speculative thread spinning inside an elided fair-lock acquisition.
    abort_self(ctx, AbortCause::kPause);
  }
  ctx.thread().tick(cost_.pause);
}

std::uint64_t Engine::spin_word(
    Ctx& ctx, const void* addr,
    support::FunctionRef<bool(std::uint64_t)> pred) {
  if (ctx.in_tx() || !sched_.spin_parking()) {
    // The literal loop: PAUSE aborts a transaction, and a replay would skip
    // the perturbation draws of the ticks it stands in for.
    for (;;) {
      const std::uint64_t v = load(ctx, addr);
      if (!pred(v)) return v;
      pause(ctx);
    }
  }
  // A load is quiet — direct_load would only tick load_cycles and the loop
  // would go on — iff the line has no transactional writer to abort, our
  // cached copy makes it an L1 hit, and the predicate still holds.
  auto quiet = [&] {
    const LineId line = line_of(addr);
    const LineRecord& rec = table_.record(line, ctx.line_cache_for(line).ref);
    return rec.writer == kNoThread && rec.copies.test(ctx.id()) &&
           pred(read_word(addr));
  };
  sim::SpinWait w{quiet, cost_.l1_hit + cost_.access_compute, cost_.pause};
  sim::SimThread& t = ctx.thread();
  for (;;) {
    // w.load_next, not control flow, says which step is next: a replay may
    // have advanced the loop while the fiber was parked.
    if (w.load_next) {
      if (quiet()) {
        t.spin_tick(w, w.load_cycles, /*load_next=*/false);
        continue;
      }
      const std::uint64_t v = direct_load(ctx, addr);
      if (!pred(v)) return v;
    }
    t.spin_tick(w, w.pause_cycles, /*load_next=*/true);  // pause(ctx)
  }
}

// ---------------------------------------------------------------------------
// HLE
// ---------------------------------------------------------------------------

void Engine::elide_begin(Ctx& ctx, void* addr, std::uint64_t illusion_value) {
  const auto key = reinterpret_cast<std::uintptr_t>(addr);
  ELISION_CHECK_MSG(!ctx.elided_, "one elided lock per transaction supported");
  const LineId line = line_of(addr);
  Ctx::CachedLine& cl = ctx.line_cache_for(line);
  LineRecord& rec = table_.record(line, cl.ref);
  if (rec.writer != kNoThread && rec.writer != ctx.id()) {
    if (requester_must_yield(ctx, *contexts_[rec.writer])) {
      abort_self(ctx, AbortCause::kConflict);
    }
    abort_remote(rec.writer, AbortCause::kConflict, line, ctx.id());
  }
  if (!rec.readers.test(ctx.id())) {
    rec.readers.set(ctx.id());
    ctx.read_lines_.push_back(&rec);
    read_set_admit(ctx, line);
  }
  ctx.elided_ = true;
  ctx.elided_addr_ = key;
  ctx.elided_line_ = line;  // cached so the access paths never recompute it
  ctx.elided_original_ = read_word(addr);
  ctx.elided_illusion_ = illusion_value;
  ctx.lock_line_data_accessed_ = false;
  if (config_.owned_line_fastpath && !config_.hardware_extension) {
    // Marked before the charge — see tx_load.
    cl.owned_epoch = ctx.own_epoch_;
    cl.owned = static_cast<std::uint8_t>(
        Ctx::kOwnedRead | (rec.writer == ctx.id() ? Ctx::kOwnedWrite : 0));
  }
  charge_read(ctx, rec);
}

std::uint64_t Engine::xacquire_exchange(Ctx& ctx, void* addr,
                                        std::uint64_t value) {
  if (ctx.mode() == ElisionMode::kStandard) {
    return exchange(ctx, addr, value);
  }
  if (ctx.in_tx()) {
    poll(ctx);
    if (!config_.allow_hle_in_rtm) abort_self(ctx, AbortCause::kNesting);
    ctx.elided_is_tx_root_ = false;
    elide_begin(ctx, addr, value);
    return ctx.elided_original_;
  }
  begin_tx(ctx);
  ctx.elided_is_tx_root_ = true;
  elide_begin(ctx, addr, value);
  return ctx.elided_original_;
}

std::uint64_t Engine::xacquire_fetch_add(Ctx& ctx, void* addr,
                                         std::uint64_t delta) {
  if (ctx.mode() == ElisionMode::kStandard) {
    return fetch_add(ctx, addr, delta);
  }
  if (ctx.in_tx()) {
    poll(ctx);
    if (!config_.allow_hle_in_rtm) abort_self(ctx, AbortCause::kNesting);
    ctx.elided_is_tx_root_ = false;
  } else {
    begin_tx(ctx);
    ctx.elided_is_tx_root_ = true;
  }
  // Illusion value computed from the memory value at elision time.
  const std::uint64_t original = read_word(addr);
  elide_begin(ctx, addr, original + delta);
  return original;
}

bool Engine::xacquire_compare_exchange(Ctx& ctx, void* addr,
                                       std::uint64_t expected,
                                       std::uint64_t desired) {
  if (ctx.mode() == ElisionMode::kStandard) {
    return compare_exchange(ctx, addr, expected, desired);
  }
  if (ctx.in_tx()) {
    poll(ctx);
    if (!config_.allow_hle_in_rtm) abort_self(ctx, AbortCause::kNesting);
    ctx.elided_is_tx_root_ = false;
  } else {
    begin_tx(ctx);
    ctx.elided_is_tx_root_ = true;
  }
  // CMPXCHG stores `desired` on success and writes back the original value
  // on failure; either way the tagged store is elided and the lock's line
  // enters the read set (the illusion is what this thread "wrote"). A caller
  // that sees `false` while transactional must PAUSE (and thus abort): the
  // illusion pins the lock word, so spinning on it in-tx cannot make
  // progress.
  const std::uint64_t original = read_word(addr);
  const bool ok = original == expected;
  elide_begin(ctx, addr, ok ? desired : original);
  return ok;
}

bool Engine::elide_release(Ctx& ctx, std::uint64_t new_value) {
  if (new_value != ctx.elided_original_) {
    // HLE requires the releasing store to restore the lock's original value.
    abort_self(ctx, AbortCause::kHleMismatch);
  }
  ctx.elided_ = false;
  const bool root = ctx.elided_is_tx_root_;
  ctx.elided_is_tx_root_ = false;
  if (root) commit(ctx);  // the XRELEASE commits the HLE transaction
  return true;
}

void Engine::xrelease_store(Ctx& ctx, void* addr, std::uint64_t value) {
  const auto key = reinterpret_cast<std::uintptr_t>(addr);
  if (ctx.in_tx() && ctx.elided_) {
    poll(ctx);
    if (key != ctx.elided_addr_) {
      // An XRELEASE that does not write the elided address cannot end the
      // elision; the transaction aborts. This is why the unadjusted ticket
      // and CLH locks are HLE-incompatible (Ch. 6).
      abort_self(ctx, AbortCause::kHleMismatch);
    }
    elide_release(ctx, value);
    return;
  }
  store(ctx, addr, value);
}

std::uint64_t Engine::xrelease_fetch_add(Ctx& ctx, void* addr,
                                         std::uint64_t delta) {
  const auto key = reinterpret_cast<std::uintptr_t>(addr);
  if (ctx.in_tx() && ctx.elided_) {
    poll(ctx);
    if (key != ctx.elided_addr_ ||
        ctx.elided_illusion_ + delta != ctx.elided_original_) {
      abort_self(ctx, AbortCause::kHleMismatch);
    }
    const std::uint64_t old = ctx.elided_illusion_;
    elide_release(ctx, old + delta);
    return old;
  }
  return fetch_add(ctx, addr, delta);
}

bool Engine::xrelease_compare_exchange(Ctx& ctx, void* addr,
                                       std::uint64_t expected,
                                       std::uint64_t desired) {
  const auto key = reinterpret_cast<std::uintptr_t>(addr);
  if (ctx.in_tx() && ctx.elided_) {
    poll(ctx);
    if (key != ctx.elided_addr_) abort_self(ctx, AbortCause::kHleMismatch);
    if (ctx.elided_illusion_ != expected) return false;
    elide_release(ctx, desired);
    return true;
  }
  return compare_exchange(ctx, addr, expected, desired);
}

}  // namespace elision::tsx

// The simulated TSX engine: Haswell-like best-effort hardware transactional
// memory with requestor-wins conflict management, an L1-bounded write set,
// spurious aborts, RTM (XBEGIN/XEND/XABORT/XTEST) and HLE
// (XACQUIRE/XRELEASE) interfaces, and the Chapter 7 hardware extension as an
// optional mode.
//
// All shared state of a simulated program must be accessed through this
// engine (via tsx::Shared<T>); that is what stands in for the cache-coherence
// fabric that real TSX piggybacks on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/scheduler.hpp"
#include "support/function_ref.hpp"
#include "tsx/abort.hpp"
#include "tsx/config.hpp"
#include "tsx/line_table.hpp"
#include "tsx/telemetry.hpp"
#include "tsx/tx_context.hpp"

namespace elision::tsx {

template <typename T>
class Shared;

class Engine {
 public:
  explicit Engine(sim::Scheduler& sched, TsxConfig config = {});

  const TsxConfig& config() const { return config_; }
  TsxConfig& mutable_config() { return config_; }

  // Returns (creating on first use) the transaction context of a thread.
  TxContext& context(sim::SimThread& t);

  // ------------------------------------------------------------------
  // Plain accesses. Routed transactionally when ctx is inside a
  // transaction, directly (with requestor-wins invalidation of conflicting
  // transactions) otherwise. All values are 64-bit words.
  // ------------------------------------------------------------------
  std::uint64_t load(Ctx& ctx, const void* addr);
  void store(Ctx& ctx, void* addr, std::uint64_t value);
  std::uint64_t exchange(Ctx& ctx, void* addr, std::uint64_t value);
  std::uint64_t fetch_add(Ctx& ctx, void* addr, std::uint64_t delta);
  // Returns true and installs desired iff *addr == expected.
  bool compare_exchange(Ctx& ctx, void* addr, std::uint64_t expected,
                        std::uint64_t desired);

  // ------------------------------------------------------------------
  // HLE. The behaviour of the XACQUIRE-tagged ops depends on
  // ctx.mode(): speculative mode begins a transaction and elides the store
  // (the lock's line enters the read set; the thread sees the "acquired"
  // value through the elision buffer); standard mode executes the plain RMW.
  // ------------------------------------------------------------------
  std::uint64_t xacquire_exchange(Ctx& ctx, void* addr, std::uint64_t value);
  std::uint64_t xacquire_fetch_add(Ctx& ctx, void* addr, std::uint64_t delta);
  bool xacquire_compare_exchange(Ctx& ctx, void* addr, std::uint64_t expected,
                                 std::uint64_t desired);
  void xrelease_store(Ctx& ctx, void* addr, std::uint64_t value);
  bool xrelease_compare_exchange(Ctx& ctx, void* addr, std::uint64_t expected,
                                 std::uint64_t desired);
  std::uint64_t xrelease_fetch_add(Ctx& ctx, void* addr, std::uint64_t delta);

  // ------------------------------------------------------------------
  // RTM.
  // ------------------------------------------------------------------
  // Runs `body` transactionally. Returns kCommitted on success, otherwise
  // the Intel-style abort status. Nested calls flatten into the outer
  // transaction (an abort resumes at the outermost caller).
  unsigned run_transaction(Ctx& ctx, support::FunctionRef<void()> body);

  // The one XBEGIN checkpoint site. Pushes a checkpoint onto ctx's chain and
  // runs `body`; returns kCommitted if the body returns, or the abort status
  // if an abort of a transaction begun inside it restored the checkpoint
  // (the innermost live attempt wins). Either way the checkpoint is popped.
  //
  // A restore discards the body's frames without running destructors, as
  // the hardware discards them: no automatic object with a non-trivial
  // destructor may be live in `body` (or anything it calls) at an abort.
  unsigned attempt(Ctx& ctx, support::FunctionRef<void()> body);
  [[noreturn]] void xabort(Ctx& ctx, std::uint8_t code);
  bool xtest(Ctx& ctx) const { return ctx.in_tx(); }

  // Busy-wait hint. Like Haswell, PAUSE inside a transaction aborts it.
  void pause(Ctx& ctx);

  // The way to wait for a word: `while (pred(word.load(ctx))) pause(ctx);`,
  // returning the last value loaded. Simulated results are exactly those of
  // that loop. Outside a transaction, with switch-bound batching on and no
  // schedule perturbation, the waiter parks in the scheduler when it yields
  // inside the loop, and the scheduler replays its side-effect-free
  // iterations instead of switching to the fiber (sim::SpinWait): each time
  // the waiter is picked, a replay jumps its clock to the tick at which it
  // would yield again, probing the word first only if its line's write
  // version moved since the last quiet probe, so `pred` must depend on the
  // loaded value alone. Outside a transaction, a loop whose load + PAUSE
  // round scales to 0 cycles fails at once instead of spinning forever.
  // Defined in tsx/shared.hpp.
  template <typename T, typename Pred>
  T spin_while(Ctx& ctx, const Shared<T>& word, Pred pred);

  // Charges `cycles` of pure compute to the thread (models non-memory work).
  void compute(Ctx& ctx, std::uint64_t cycles) { ctx.thread().tick(cycles); }

  LineTable& line_table() { return table_; }

  // Aggregate of all threads' TxStats.
  TxStats total_stats() const;

  // Stable first-touch sequence number of a simulated line (0 if the line
  // was never accessed). Unlike the raw LineId — an address, different every
  // run — this is a deterministic function of the simulation, so schemes
  // that hash a conflict line (grouped-SCM's group selection) reproduce
  // bit-identically across processes. See LineTable::seq_of.
  std::uint64_t line_seq(support::LineId line) { return table_.seq_of(line); }

  // Abort-telemetry sink (nullptr disables; the hot path then pays one
  // predictable branch per protocol event).
  void set_telemetry(Telemetry* t) { telemetry_ = t; }
  Telemetry* telemetry() { return telemetry_; }

  // Telemetry emission hook for the region drivers (lock acquire/release,
  // SCM aux-lock events). Timestamped with the thread's virtual clock.
  void note_event(Ctx& ctx, EventKind kind, support::LineId line = 0) {
    if (telemetry_ != nullptr) [[unlikely]] {
      telemetry_->record({.timestamp = ctx.thread().now(),
                          .line = line,
                          .thread = static_cast<std::int16_t>(ctx.id()),
                          .other_thread = -1,
                          .kind = kind,
                          .cause = AbortCause::kNone});
    }
  }

 private:
  // --- transactional paths ---
  // Split into an inline tier (defined below the class; it resolves the
  // write-buffer, elision-illusion and owned-line hits without leaving the
  // caller) and an out-of-line slow half that does the table lookup,
  // conflict detection and set bookkeeping. The split is what lets every
  // simulated access start without a function call: load()/store() compile
  // into the workload's own loop.
  std::uint64_t tx_load(Ctx& ctx, const void* addr);
  void tx_store(Ctx& ctx, void* addr, std::uint64_t value);
  std::uint64_t tx_load_slow(Ctx& ctx, const void* addr, std::uintptr_t key,
                             support::LineId line, TxContext::CachedLine& cl);
  void tx_store_slow(Ctx& ctx, std::uint64_t value, std::uintptr_t key,
                     support::LineId line, TxContext::CachedLine& cl);

  // spin_while() on a raw word.
  std::uint64_t spin_word(Ctx& ctx, const void* addr,
                          support::FunctionRef<bool(std::uint64_t)> pred);

  // --- direct (non-transactional) paths ---
  std::uint64_t direct_load(Ctx& ctx, const void* addr);
  void direct_store(Ctx& ctx, void* addr, std::uint64_t value);
  // Performs *addr = f(*addr) returning the old value; handles the
  // requestor-wins invalidation of conflicting transactions.
  template <typename F>
  std::uint64_t direct_update(Ctx& ctx, void* addr, bool is_rmw, F&& f);

  // --- protocol helpers ---
  void begin_tx(Ctx& ctx);
  void commit(Ctx& ctx);
  [[noreturn]] void abort_self(Ctx& ctx, AbortCause cause,
                               std::uint8_t code = 0);
  void poll(Ctx& ctx);
  void abort_remote(int victim_id, AbortCause cause, support::LineId line,
                    int requester_id);
  bool requester_must_yield(Ctx& requester, const TxContext& owner) const;
  void abort_readers(LineRecord& rec, support::LineId line, int except_id,
                     int requester_id);
  void release_ownership(Ctx& ctx);
  [[noreturn]] void rollback_and_restore(Ctx& ctx, AbortCause cause,
                                         std::uint8_t code);

  void elide_begin(Ctx& ctx, void* addr, std::uint64_t illusion_value);
  bool elide_release(Ctx& ctx, std::uint64_t new_value);  // true: committed/ok

  void read_set_admit(Ctx& ctx, support::LineId line);    // capacity checks
  void write_set_admit(Ctx& ctx, support::LineId line);

  void spurious_check(Ctx& ctx, double p);

  // Chapter 7: before touching a line outside the cache footprint, wait for
  // the elided lock to be free (state S suspension).
  void hwext_wait_for_new_line(Ctx& ctx, const LineRecord& rec);

  // --- cost accounting (also maintains the MESI-like sharing model) ---
  // The caller passes the line's record so the hot path probes the table
  // once per access, not twice.
  void charge_read(Ctx& ctx, LineRecord& rec);
  void charge_write(Ctx& ctx, LineRecord& rec, bool is_rmw);

  static std::uint64_t read_word(const void* addr) {
    return *static_cast<const std::uint64_t*>(addr);
  }
  static void write_word(void* addr, std::uint64_t v) {
    *static_cast<std::uint64_t*>(addr) = v;
  }

  sim::Scheduler& sched_;
  TsxConfig config_;
  const sim::CostModel& cost_;
  LineTable table_;
  Telemetry* telemetry_ = nullptr;
  std::vector<std::unique_ptr<TxContext>> contexts_;  // indexed by thread id
};

// ---------------------------------------------------------------------------
// Per-access fast path. Inline so a workload's access loop compiles the hit
// tiers — write-buffer word, elision illusion, owned line — down to a few
// compares with no call; only a miss drops into the out-of-line slow half.
// Every tier charges exactly the ticks and draws exactly the RNG values the
// slow path would, so simulated results do not depend on which tier serves
// an access (docs/simulator.md, "The per-access fast path").
// ---------------------------------------------------------------------------

inline void Engine::poll(Ctx& ctx) {
  if (ctx.state_ == TxState::kAbortMarked) [[unlikely]] {
    rollback_and_restore(ctx, ctx.pending_cause_, 0);
  }
}

inline void Engine::spurious_check(Ctx& ctx, double p) {
  if (p > 0 && ctx.thread().rng().next_bool(p)) [[unlikely]] {
    abort_self(ctx, AbortCause::kSpurious);
  }
}

inline std::uint64_t Engine::tx_load(Ctx& ctx, const void* addr) {
  poll(ctx);
  spurious_check(ctx, config_.spurious_per_access);
  const auto key = reinterpret_cast<std::uintptr_t>(addr);
  if (!ctx.wbuf_.empty()) {
    if (const std::uint64_t* v = ctx.wbuf_.find(key)) {
      ctx.thread().tick(cost_.l1_hit + cost_.access_compute);
      return *v;
    }
  }
  if (ctx.elided_ && key == ctx.elided_addr_) [[unlikely]] {
    // The elision illusion: the thread sees the lock as it "wrote" it.
    ctx.thread().tick(cost_.l1_hit + cost_.access_compute);
    return ctx.elided_illusion_;
  }
  const support::LineId line = support::line_of(addr);
  TxContext::CachedLine& cl = ctx.line_cache_for(line);
  if (cl.ref.line == line && (cl.owned & TxContext::kOwnedRead) != 0 &&
      cl.owned_epoch == ctx.own_epoch_) {
    // Owned-line fast path: our reader bit is held and no foreign writer
    // can coexist with it, so the slow path would charge an L1 hit and
    // perform only idempotent bookkeeping. (key != elided_addr_ here: the
    // illusion check above already returned for the lock word itself.)
    if (ctx.elided_ && line == ctx.elided_line_) [[unlikely]] {
      ctx.lock_line_data_accessed_ = true;
    }
    ++ctx.stats_.fp_owned_hits;
    const std::uint64_t value = read_word(addr);
    ctx.thread().tick(cost_.l1_hit + cost_.access_compute);
    return value;
  }
  return tx_load_slow(ctx, addr, key, line, cl);
}

inline void Engine::tx_store(Ctx& ctx, void* addr, std::uint64_t value) {
  poll(ctx);
  spurious_check(ctx, config_.spurious_per_access);
  const auto key = reinterpret_cast<std::uintptr_t>(addr);
  const support::LineId line = support::line_of(addr);
  TxContext::CachedLine& cl = ctx.line_cache_for(line);
  if (cl.ref.line == line && (cl.owned & TxContext::kOwnedWrite) != 0 &&
      cl.owned_epoch == ctx.own_epoch_) {
    // Owned-line fast path: our writer slot is held, so the line is already
    // exclusive and dirty for us (any foreign access since we took it would
    // have abort-marked us, caught by poll() above) — the slow path would
    // skip its first-store block and charge an L1 hit.
    if (ctx.elided_ && key == ctx.elided_addr_) [[unlikely]] {
      ctx.lock_line_data_accessed_ = true;
    }
    ++ctx.stats_.fp_owned_hits;
    ctx.wbuf_.put(key, value);
    ctx.thread().tick(cost_.l1_hit + cost_.access_compute);
    return;
  }
  tx_store_slow(ctx, value, key, line, cl);
}

inline std::uint64_t Engine::load(Ctx& ctx, const void* addr) {
  if (ctx.in_tx()) return tx_load(ctx, addr);
  return direct_load(ctx, addr);
}

inline void Engine::store(Ctx& ctx, void* addr, std::uint64_t value) {
  if (ctx.in_tx()) {
    tx_store(ctx, addr, value);
  } else {
    direct_store(ctx, addr, value);
  }
}

}  // namespace elision::tsx

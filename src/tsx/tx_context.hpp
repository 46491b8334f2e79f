// Per-simulated-thread transactional state.
#pragma once

#include <array>
#include <csetjmp>
#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"
#include "support/align.hpp"
#include "support/check.hpp"
#include "support/flat_map.hpp"
#include "tsx/abort.hpp"
#include "tsx/config.hpp"
#include "tsx/line_table.hpp"
#include "tsx/stats.hpp"

namespace elision::tsx {

class Engine;

enum class TxState : std::uint8_t {
  kInactive,     // not in a transaction
  kActive,       // speculative execution in progress
  kAbortMarked,  // a requestor-wins conflict doomed this transaction; it
                 // aborts at its next engine interaction
};

// How XACQUIRE/XRELEASE-tagged lock operations behave for this thread right
// now. The elision region drivers flip this between speculative attempts and
// the non-transactional re-execution that follows an abort.
enum class ElisionMode : std::uint8_t {
  kStandard,     // elidable ops execute as plain atomic RMWs
  kSpeculative,  // an XACQUIRE op begins a transaction and elides the store
};

// An XBEGIN checkpoint: where an abort resumes. Engine::attempt pushes one
// onto its context's chain (linked through `prev`, innermost first) and an
// abort restores the innermost, handing it the abort status — the simulated
// counterpart of the hardware discarding the speculative frames and resuming
// at the XBEGIN fallback address with the status in EAX.
struct Checkpoint {
  std::jmp_buf env;
  Checkpoint* prev = nullptr;
  unsigned status = 0;
};

// The per-thread transaction context. This is also the "ctx" handle that all
// workload code passes around: it identifies the thread, gives access to its
// clock/RNG, and carries the speculative state.
class TxContext {
 public:
  TxContext(Engine& engine, sim::SimThread& thread)
      : engine_(&engine), thread_(&thread), id_(thread.tid()) {
    // The line table indexes ThreadSet words by id; an id at or past
    // kMaxThreads would corrupt conflict detection for some other thread.
    // Mirrors the lock slot-array bounds checks.
    ELISION_CHECK_MSG(id_ >= 0 && id_ < kMaxThreads,
                      "thread id out of range for the reader mask "
                      "(tsx::kMaxThreads)");
  }

  Engine& engine() { return *engine_; }
  sim::SimThread& thread() { return *thread_; }
  int id() const { return id_; }

  bool in_tx() const { return state_ != TxState::kInactive; }

  TxStats& stats() { return stats_; }
  const TxStats& stats() const { return stats_; }

  ElisionMode mode() const { return mode_; }
  void set_mode(ElisionMode m) { mode_ = m; }

  // Abort feedback (the paper's future-work direction: "utilizing abort
  // information provided by the hardware, such as the location in which a
  // conflict occurs, and/or the identity of the conflicting thread").
  // Valid after the last abort of this thread; 0 / -1 when the abort had no
  // associated conflict.
  support::LineId last_conflict_line() const { return last_conflict_line_; }
  int last_conflict_thread() const { return last_conflict_thread_; }
  // Cause of this thread's most recent abort (kNone before the first one).
  // The region drivers use it to attribute failed attempts in RegionResult.
  AbortCause last_abort_cause() const { return last_abort_cause_; }

  // Whether an Engine::attempt is live on this thread (an abort has
  // somewhere to resume).
  bool has_checkpoint() const { return checkpoint_ != nullptr; }

 private:
  friend class Engine;

  Engine* engine_;
  sim::SimThread* thread_;
  int id_;

  TxState state_ = TxState::kInactive;
  int nest_depth_ = 0;
  std::uint64_t begin_time_ = 0;  // virtual time of xbegin (age for TLR)
  AbortCause pending_cause_ = AbortCause::kNone;
  Checkpoint* checkpoint_ = nullptr;  // innermost live Engine::attempt
  ElisionMode mode_ = ElisionMode::kStandard;
  support::LineId last_conflict_line_ = 0;
  int last_conflict_thread_ = -1;
  AbortCause last_abort_cause_ = AbortCause::kNone;
  support::LineId pending_conflict_line_ = 0;
  int pending_conflict_thread_ = -1;

  // Read set: records whose reader bit this tx holds in the line table.
  // Raw pointers are safe: records never move (chunked storage) and the
  // table is never cleared while a transaction is live, so commit/abort
  // release with one deref per line and no re-probing or validation.
  std::vector<LineRecord*> read_lines_;
  // Write set: records whose writer slot this tx holds.
  std::vector<LineRecord*> write_lines_;
  // Write-set L1 occupancy per cache set (capacity model).
  std::array<std::uint8_t, 64> l1_set_occupancy_{};

  // Buffered transactional writes (word granularity; published at commit).
  support::WordMap wbuf_;

  // Per-access fast-path state: a small direct-mapped cache of per-line
  // memos, indexed by the low bits of the line id.
  //
  // Each entry carries two independent layers:
  //  - `ref` memoizes the line's record pointer. It is validated by the
  //    table's generation stamp on every use, so it needs no invalidation
  //    here; record pointers survive index growth by construction and
  //    clear() invalidates them via the stamp.
  //  - `owned` caches the fact that this context holds the line's reader bit
  //    (kOwnedRead) and/or writer slot (kOwnedWrite) *and* no foreign writer
  //    can coexist with that ownership. While it holds, a repeat access is a
  //    guaranteed L1 hit whose slow-path side effects are all idempotent, so
  //    the engine skips the table lookup and conflict checks entirely. The
  //    bits are valid only while `owned_epoch` equals the context's
  //    `own_epoch_`, which release_ownership() bumps on every commit and
  //    abort (self or remote) — the only points where reader/writer
  //    ownership is ever taken away.
  static constexpr std::size_t kLineCacheWays = 64;
  static constexpr std::uint8_t kOwnedRead = 1;
  static constexpr std::uint8_t kOwnedWrite = 2;
  struct CachedLine {
    LineTable::Cache ref;
    std::uint64_t owned_epoch = 0;  // matches own_epoch_ => owned is valid
    std::uint8_t owned = 0;         // kOwnedRead | kOwnedWrite
  };
  std::array<CachedLine, kLineCacheWays> line_cache_{};
  // Starts above every entry's owned_epoch so default entries are invalid.
  std::uint64_t own_epoch_ = 1;

  CachedLine& line_cache_for(support::LineId line) {
    return line_cache_[static_cast<std::size_t>(line) & (kLineCacheWays - 1)];
  }

  // HLE elision of a single lock word.
  bool elided_ = false;
  bool elided_is_tx_root_ = false;     // tx was begun by the XACQUIRE itself
  bool lock_line_data_accessed_ = false;  // Ch.7: lock line touched as data
  std::uintptr_t elided_addr_ = 0;
  support::LineId elided_line_ = 0;    // line_of(elided_addr_), cached once
  std::uint64_t elided_original_ = 0;  // value XRELEASE must restore
  std::uint64_t elided_illusion_ = 0;  // value this thread sees (the lock "held")

  TxStats stats_;
};

// Workload code refers to the context simply as Ctx.
using Ctx = TxContext;

}  // namespace elision::tsx

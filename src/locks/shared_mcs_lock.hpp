// Shared-mode MCS lock: the fair member of the two-mode (reader-writer)
// lock family.
//
// Writers order themselves through a plain MCS queue (Algorithm 2), so the
// writer side inherits MCS fairness and its elision behaviour: the XACQUIRE
// SWAP on the queue tail elides a solo enqueue. The queue head then
// arbitrates with readers through the reader-writer word of
// locks/shared_word.hpp: an *elided* writer merely subscribes to the word
// and insists it is free, while a real queue head announces intent (blocking
// new readers), drains the current ones and claims the writer bit. Readers
// use the common shared protocol and never touch the queue.
#pragma once

#include <cstdint>

#include "support/align.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/shared_word.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {

class SharedMcsLock {
 public:
  static constexpr const char* kName = "Shared-MCS";
  static constexpr bool kIsFair = true;  // among writers (MCS queue order)

  // --- exclusive mode ---
  void lock(tsx::Ctx& ctx) {
    queue_.lock(ctx);  // speculative mode: elides when the queue is empty
    if (ctx.in_tx()) {
      // Elided writer: subscribe to the reader-writer word and the real
      // reader count and insist both are free. Any real reader or writer
      // present — or arriving, which invalidates a subscribed line — dooms
      // the speculation (the PAUSE aborts it).
      while (word().load(ctx) != 0 || readers().load(ctx) != 0) {
        ctx.engine().pause(ctx);
      }
      return;
    }
    // Real queue head: block new readers, drain the current real ones,
    // claim. Only the head manipulates the pending/writer bits, so plain
    // fetch_adds suffice; transient reader entries (optimistic entries that
    // back out) only touch the reader-count line.
    word().fetch_add(ctx, rw::kPendingUnit);
    ctx.engine().spin_while(ctx, readers(),
                            [](std::uint64_t v) { return v != 0; });
    word().fetch_add(ctx, rw::kWriter - rw::kPendingUnit);
  }

  void unlock(tsx::Ctx& ctx) {
    // The writer bit must drop before the queue hand-off: the successor
    // claims the word itself and must not find it still writer-held. An
    // elided writer (still transactional here) never set the bit; its
    // XRELEASE on the queue tail validates and commits.
    if (!ctx.in_tx()) word().fetch_add(ctx, std::uint64_t{0} - rw::kWriter);
    queue_.unlock(ctx);
  }

  // --- shared mode ---
  void lock_shared(tsx::Ctx& ctx) {
    rw::lock_shared(ctx, word(), readers());
  }
  void unlock_shared(tsx::Ctx& ctx) {
    rw::unlock_shared(ctx, word(), readers());
  }

  bool is_held(tsx::Ctx& ctx) {
    return queue_.is_held(ctx) || word().load(ctx) != 0 ||
           readers().load(ctx) != 0;
  }
  // What blocks a *shared* acquisition. Deliberately only the word: a
  // queued-but-not-yet-pending writer does not block readers (writer
  // preference starts at the pending announcement), and subscribing elided
  // readers to the queue tail would abort them on every writer enqueue.
  bool is_write_locked(tsx::Ctx& ctx) {
    return (word().load(ctx) & rw::kReaderBlockMask) != 0;
  }

  // Cache line of the reader-writer word (telemetry tagging; the word is
  // what real acquisitions invalidate in the speculating crowd).
  support::LineId lock_line() const { return support::line_of(&word_.value); }

  // Abort aftermath: enqueue non-speculatively and wait — fair locks
  // "remember" the conflict (Ch. 3). Always acquires.
  bool reissue_acquire_standard(tsx::Ctx& ctx) {
    lock(ctx);  // ctx is in standard mode: the SWAP executes for real
    return true;
  }
  bool reissue_acquire_shared_standard(tsx::Ctx& ctx) {
    return rw::reissue_acquire_shared(ctx, word(), readers());
  }

 private:
  tsx::Shared<std::uint64_t>& word() { return word_.value; }
  tsx::Shared<std::uint64_t>& readers() { return readers_.value; }

  McsLock queue_;
  support::CacheAligned<tsx::Shared<std::uint64_t>> word_;
  // Real-reader count, deliberately on its own line (see shared_word.hpp).
  support::CacheAligned<tsx::Shared<std::uint64_t>> readers_;
};

}  // namespace elision::locks

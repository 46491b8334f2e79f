// Reader-writer word shared by the two-mode lock family (ROADMAP item 3:
// shared-mode elision — the lock family the paper's Ch. 5 schemes never
// measured).
//
// The lock state is split across two cache lines:
//
//   writer word (the elidable lock line)
//     bit  0       a writer holds the lock exclusively
//     bits 1..20   count of writers that announced intent ("pending"); a
//                  nonzero count blocks *new* readers, giving writers
//                  preference so a stream of readers cannot starve a writer
//     bits 21..63  transient elided-reader illusion only (see below); a
//                  committed word never carries reader bits
//
//   reader count (its own line)
//     number of *non-speculative* readers inside the critical section
//
// An *elided* acquisition in either mode never stores to the writer word:
// readers subscribe with an XACQUIRE FETCH_ADD of kReaderUnit whose store is
// elided (the +unit exists only in the transaction's illusion of the word),
// writers with an XACQUIRE CMPXCHG — both put the word in the transaction's
// read set, so a writer's real acquisition invalidates the line and aborts
// the whole speculating crowd at once. That crowd abort is the
// reader-avalanche the writer-heavy btree bench points measure.
//
// A reader that *falls back*, however, must become visible without
// disturbing that subscription: if fallback readers counted themselves in
// the writer word, every entry/exit pair of real RMWs would abort the
// elided crowd, and — because a real reader does not set kReaderBlockMask —
// the crowd would immediately re-subscribe and be aborted again, a
// ping-pong cascade that makes shared elision *lose* to exclusive elision
// on read-mostly workloads. Hence the separate reader-count line: real
// readers count themselves there, elided readers never touch it, and only
// writers (who must drain real readers anyway) read it — an elided writer
// subscribes to it so a real reader's arrival still dooms the speculation.
#pragma once

#include <cstdint>

#include "tsx/shared.hpp"

namespace elision::locks::rw {

inline constexpr std::uint64_t kWriter = 1;
inline constexpr std::uint64_t kPendingUnit = 2;
inline constexpr std::uint64_t kPendingMask =
    ((std::uint64_t{1} << 20) - 1) << 1;
inline constexpr int kReaderShift = 21;
inline constexpr std::uint64_t kReaderUnit = std::uint64_t{1} << kReaderShift;
// A reader may enter only while no writer holds *or awaits* the lock.
inline constexpr std::uint64_t kReaderBlockMask = kWriter | kPendingMask;

// Spins until no writer holds or awaits the lock.
inline void wait_readable(tsx::Ctx& ctx, tsx::Shared<std::uint64_t>& word) {
  ctx.engine().spin_while(ctx, word, [](std::uint64_t v) {
    return (v & kReaderBlockMask) != 0;
  });
}

// Shared-mode acquisition; both shared locks use this reader protocol.
//
// Speculative mode: the XACQUIRE FETCH_ADD elides the increment and
// subscribes to the writer word. If the word turns out write-locked the
// attempt is doomed — the elision illusion pins the word, so spinning inside
// the transaction cannot observe a change — and the PAUSE aborts it; the
// region driver then retries or falls back.
//
// Standard mode: announce on the reader-count line, then recheck the writer
// word — if a writer appeared in the window, back out and re-wait. The
// entry/exit RMWs touch only the reader line, so fallback readers coexist
// with the elided crowd instead of aborting it.
inline void lock_shared(tsx::Ctx& ctx, tsx::Shared<std::uint64_t>& word,
                        tsx::Shared<std::uint64_t>& readers) {
  if (ctx.mode() == tsx::ElisionMode::kSpeculative) {
    for (;;) {
      wait_readable(ctx, word);
      const std::uint64_t old = word.xacquire_fetch_add(ctx, kReaderUnit);
      if ((old & kReaderBlockMask) == 0) return;
      ctx.engine().pause(ctx);  // doomed attempt: abort
    }
  }
  for (;;) {
    wait_readable(ctx, word);
    readers.fetch_add(ctx, 1);
    if ((word.load(ctx) & kReaderBlockMask) == 0) return;
    readers.fetch_add(ctx, std::uint64_t{0} - 1);  // writer won: back out
  }
}

inline void unlock_shared(tsx::Ctx& ctx, tsx::Shared<std::uint64_t>& word,
                          tsx::Shared<std::uint64_t>& readers) {
  if (ctx.in_tx()) {
    // Elided: illusion (original + unit) plus the decrement restores the
    // original word, so the XRELEASE validates and commits.
    word.xrelease_fetch_add(ctx, std::uint64_t{0} - kReaderUnit);
    return;
  }
  readers.fetch_add(ctx, std::uint64_t{0} - 1);
}

// One non-speculative shared re-acquisition attempt — the shared-mode
// analogue of reissue_acquire_standard(). TTAS semantics: fails when a
// writer holds or awaits the lock, after which the caller spins and may
// re-enter speculation.
inline bool reissue_acquire_shared(tsx::Ctx& ctx,
                                   tsx::Shared<std::uint64_t>& word,
                                   tsx::Shared<std::uint64_t>& readers) {
  if ((word.load(ctx) & kReaderBlockMask) != 0) return false;
  readers.fetch_add(ctx, 1);
  if ((word.load(ctx) & kReaderBlockMask) == 0) return true;
  readers.fetch_add(ctx, std::uint64_t{0} - 1);
  return false;
}

}  // namespace elision::locks::rw

// Minimal stackful fibers (user-level cooperative contexts).
//
// The simulator multiplexes all logical threads of the simulated machine onto
// the single host thread. A context switch saves the SysV x86-64 callee-saved
// registers and swaps stacks. A whole simulated context switch, this swap
// plus the scheduler's ready-queue exchange and bound recompute, measures
// 14-21 ns (bench/e2e's sim.switch_probe_ns: a tick-only 8-thread
// simulation on a 4-vCPU shared x86-64 VM), which keeps per-memory-access
// yielding affordable.
//
// Stacks are reserved, not committed: each is an anonymous mapping
// (support::MappedRegion) whose pages the kernel backs, zero-filled, when
// the fiber first touches them, so a 256-thread machine costs only the few
// pages each thread's call depth reaches. `stack_bytes` (the machine's
// `fiber_stack_bytes`, rounded up to whole pages) bounds the usable stack:
// one PROT_NONE guard page lies directly below it, so a fiber that recurses
// past its stack faults at once instead of writing into other memory.
//
// Invariants:
//  * A fiber entry function must call Fiber::on_fiber_entry() before any
//    other work (sanitizer stack-switch bookkeeping; free otherwise).
//  * A fiber entry function must never return through the trampoline; the
//    scheduler switches away from a finishing fiber (enforced with a trap).
//  * Exceptions must be caught within the fiber that threw them, and a
//    longjmp must target a jmp_buf set on the same fiber (tsx::Checkpoint
//    chains are per simulated thread); unwinding across a switch is
//    undefined.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/mapped_region.hpp"

namespace elision::sim {

class Fiber {
 public:
  using Entry = void (*)(void* arg);

  // Constructs a "host" fiber: a save-slot for the context that calls
  // switch_to() first. It owns no stack.
  Fiber() = default;

  // Constructs a runnable fiber that will invoke entry(arg) on its own stack
  // of `stack_bytes` usable bytes (at least 16 KiB; rounded up to whole
  // pages, with a guard page below) when first switched to.
  Fiber(Entry entry, void* arg, std::size_t stack_bytes);

  // Releases sanitizer bookkeeping for owned stacks (TSan fiber contexts).
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  // Suspends `from` (the currently running context) and resumes `to`.
  // Returns when something later switches back to `from`.
  static void switch_to(Fiber& from, Fiber& to);

  // Must be called first thing inside a fiber's entry function, before any
  // other work on the fresh stack. No-op unless compiled under ASan, where
  // it completes the sanitizer's stack-switch bookkeeping (a fresh fiber
  // never returns through the switch_to() that started it, so the matching
  // __sanitizer_finish_switch_fiber has to run here).
  static void on_fiber_entry();

  // Internal (ASan bookkeeping): records this fiber's stack bounds if they
  // are not known yet. The host fiber owns no stack, so its bounds are
  // learned from the sanitizer the first time it switches away.
  void note_stack_bounds(const void* bottom, std::size_t size) {
    if (asan_stack_bottom_ == nullptr) {
      asan_stack_bottom_ = bottom;
      asan_stack_size_ = size;
    }
  }

 private:
  void* sp_ = nullptr;  // saved stack pointer while suspended
  support::MappedRegion stack_;  // empty for the host fiber
  // ASan stack-switch bookkeeping (unused otherwise; kept unconditional so
  // the layout does not depend on compile flags). The host fiber's bounds
  // start unknown and are learned at its first switch away.
  const void* asan_stack_bottom_ = nullptr;
  std::size_t asan_stack_size_ = 0;
  void* asan_fake_stack_ = nullptr;
  // TSan fiber context (unused outside TSan builds). Owned (created in the
  // stackful constructor, destroyed in ~Fiber) iff stack_ is set; the host
  // fiber borrows its thread's context at its first switch away instead.
  void* tsan_fiber_ = nullptr;
};

}  // namespace elision::sim

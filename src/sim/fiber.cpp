#include "sim/fiber.hpp"

#include <cstdlib>

#include "support/check.hpp"

#if !defined(__x86_64__)
#error "elision fibers currently require x86-64 (SysV ABI)"
#endif

// AddressSanitizer must be told about manual stack switches: it keeps
// per-thread stack bounds (and a fake stack for use-after-return detection),
// and an exception thrown or a longjmp taken (a transaction abort) on an
// unannounced fiber stack makes its no-return handler unpoison the wrong
// memory — a crash inside the sanitizer runtime.
#if defined(__SANITIZE_ADDRESS__)
#define ELISION_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ELISION_FIBER_ASAN 1
#endif
#endif
#ifndef ELISION_FIBER_ASAN
#define ELISION_FIBER_ASAN 0
#endif

#if ELISION_FIBER_ASAN
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

// ThreadSanitizer keeps a per-thread shadow stack and synchronization clock;
// like ASan it must be told when execution moves to another stack, or its
// reports attribute events to the wrong context. The fiber API (create /
// switch / destroy) ships in libtsan (GCC 10+/Clang 9+).
#if defined(__SANITIZE_THREAD__)
#define ELISION_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ELISION_FIBER_TSAN 1
#endif
#endif
#ifndef ELISION_FIBER_TSAN
#define ELISION_FIBER_TSAN 0
#endif

#if ELISION_FIBER_TSAN
extern "C" {
void* __tsan_get_current_fiber();
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace elision::sim {
namespace {

// void elision_fiber_switch(void** save_sp, void* next_sp);
//
// Saves the callee-saved registers of the current context on its stack,
// stores the resulting stack pointer through save_sp, installs next_sp and
// restores the registers of the resumed context. The `ret` then transfers
// control to wherever that context suspended (or to the trampoline for a
// fresh fiber).
__asm__(
    ".text\n"
    ".align 16\n"
    ".globl elision_fiber_switch\n"
    ".type elision_fiber_switch,@function\n"
    "elision_fiber_switch:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size elision_fiber_switch,.-elision_fiber_switch\n");

// Fresh fibers start here. The stack preparation below seeds r12 with the
// entry function pointer and r13 with its argument. Entry functions never
// return; if one does, fall into ud2 so the bug is loud.
__asm__(
    ".text\n"
    ".align 16\n"
    ".globl elision_fiber_trampoline\n"
    ".type elision_fiber_trampoline,@function\n"
    "elision_fiber_trampoline:\n"
    "  movq %r13, %rdi\n"
    "  callq *%r12\n"
    "  ud2\n"
    ".size elision_fiber_trampoline,.-elision_fiber_trampoline\n");

extern "C" void elision_fiber_switch(void** save_sp, void* next_sp);
extern "C" void elision_fiber_trampoline();

#if ELISION_FIBER_ASAN
// The fiber that initiated the in-flight switch. One simulation runs all of
// its fiber switches on a single host thread, but *independent* simulations
// may run concurrently on pool threads (support/parallel.hpp), so this
// bookkeeping must be thread_local — a plain static would let one host
// thread's in-flight switch clobber another's. Lets the resumed side learn
// the *host* fiber's stack bounds (unknown at construction — it owns no
// stack) from __sanitizer_finish_switch_fiber's out-parameters the first
// time the host switches away.
thread_local Fiber* g_switching_from = nullptr;

void finish_switch_fiber(void* fake_stack_save) {
  const void* prev_bottom = nullptr;
  std::size_t prev_size = 0;
  __sanitizer_finish_switch_fiber(fake_stack_save, &prev_bottom, &prev_size);
  Fiber* from = g_switching_from;
  g_switching_from = nullptr;
  if (from != nullptr) from->note_stack_bounds(prev_bottom, prev_size);
}
#endif

}  // namespace

Fiber::Fiber(Entry entry, void* arg, std::size_t stack_bytes)
    : stack_(stack_bytes, support::MappedRegion::Guard::kBelow) {
  ELISION_CHECK(stack_bytes >= 16 * 1024);
  // Choose R (the stack pointer at trampoline entry) 16-byte aligned so that
  // the `callq *%r12` inside the trampoline leaves the callee with the
  // SysV-required rsp % 16 == 8.
  auto base = reinterpret_cast<std::uintptr_t>(stack_.data());
  std::uintptr_t r = (base + stack_.size()) & ~static_cast<std::uintptr_t>(15);
  r -= 16;  // scratch: [r] holds a null "caller" for debugger sanity

  auto* slots = reinterpret_cast<void**>(r);
  slots[0] = nullptr;  // fake return address terminating backtraces
  // Layout consumed by elision_fiber_switch's pop sequence (low -> high):
  //   [r15][r14][r13][r12][rbx][rbp][trampoline]
  slots[-1] = reinterpret_cast<void*>(&elision_fiber_trampoline);  // retq target
  slots[-2] = nullptr;                          // rbp
  slots[-3] = nullptr;                          // rbx
  slots[-4] = reinterpret_cast<void*>(entry);   // r12
  slots[-5] = arg;                              // r13
  slots[-6] = nullptr;                          // r14
  slots[-7] = nullptr;                          // r15
  sp_ = static_cast<void*>(slots - 7);
  asan_stack_bottom_ = stack_.data();
  asan_stack_size_ = stack_.size();
#if ELISION_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if ELISION_FIBER_TSAN
  // Only contexts created for an owned stack; the host fiber's tsan_fiber_
  // is the OS thread's own context and must outlive us.
  if (stack_.data() != nullptr && tsan_fiber_ != nullptr) {
    __tsan_destroy_fiber(tsan_fiber_);
  }
#endif
}

void Fiber::switch_to(Fiber& from, Fiber& to) {
  ELISION_DCHECK(&from != &to);
  ELISION_CHECK(to.sp_ != nullptr);
  void* next = to.sp_;
  to.sp_ = nullptr;  // `to` is now running; its slot is dead until it suspends
#if ELISION_FIBER_ASAN
  g_switching_from = &from;
  __sanitizer_start_switch_fiber(&from.asan_fake_stack_, to.asan_stack_bottom_,
                                 to.asan_stack_size_);
#endif
#if ELISION_FIBER_TSAN
  // The host fiber owns no stack and borrows its OS thread's TSan context,
  // learned the first time it switches away. A host fiber never migrates
  // between OS threads (one simulation runs entirely on one pool thread),
  // so the borrowed context stays valid for the Scheduler's lifetime.
  if (from.tsan_fiber_ == nullptr) {
    from.tsan_fiber_ = __tsan_get_current_fiber();
  }
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
  elision_fiber_switch(&from.sp_, next);
#if ELISION_FIBER_ASAN
  // Running again on `from`'s stack: complete the switch that resumed us.
  finish_switch_fiber(from.asan_fake_stack_);
#endif
}

void Fiber::on_fiber_entry() {
#if ELISION_FIBER_ASAN
  // A fresh fiber has no fake stack to restore (it never suspended).
  finish_switch_fiber(nullptr);
#endif
}

}  // namespace elision::sim

// The host-speed probe every rep runs before its workload. The benchmark
// scales host times by it so that a shared machine slowing down under its
// neighbours' load moves the probe and the simulator together and the scaled
// metrics stay put. It imitates the simulator's hot loop — fiber switches
// with a few dependent loads in an L2-sized table between them — but shares
// no code with the program, so no program change can move it.
//
// Never change this file: every scaled host-time metric depends on it.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "e2e.hpp"
#include "trace.hpp"

#if !defined(__x86_64__)
#error "the calibration probe requires x86-64 (SysV ABI)"
#endif

extern "C" void e2e_cal_switch(void** save_sp, void* next_sp);
extern "C" [[noreturn]] void e2e_cal_fiber();

// Saves the callee-saved registers on the current stack, stores the stack
// pointer through save_sp, and resumes the context saved at next_sp.
__asm__(
    ".text\n"
    ".align 16\n"
    ".globl e2e_cal_switch\n"
    ".type e2e_cal_switch,@function\n"
    "e2e_cal_switch:\n"
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
    ".size e2e_cal_switch,.-e2e_cal_switch\n");

namespace {

constexpr int kFibers = 8;
constexpr std::size_t kStackBytes = 64 * 1024;
constexpr long kSwitches = 400000;
constexpr std::uint32_t kTableEntries = 32768;  // 128 KiB of uint32
constexpr int kLoadsPerSwitch = 4;

struct Ring {
  void* host_sp = nullptr;
  void* sp[kFibers] = {};
  int cur = 0;
  long left = kSwitches;
  std::uint32_t* next = nullptr;  // one random cycle over the table
  std::uint32_t at = 0;
};

// Page-aligned, so the probe's cache-set mapping does not depend on where
// the preceding rep left the heap.
struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};
template <typename T>
std::unique_ptr<T[], FreeDeleter> page_aligned(std::size_t n) {
  const std::size_t bytes = (n * sizeof(T) + 4095) / 4096 * 4096;
  auto* p = static_cast<T*>(std::aligned_alloc(4096, bytes));
  if (p == nullptr) throw std::bad_alloc();
  std::memset(p, 0, bytes);
  return std::unique_ptr<T[], FreeDeleter>(p);
}

// The probe runs one ring at a time on one host thread.
Ring* g_ring = nullptr;

// A fresh stack whose first switch "returns" into e2e_cal_fiber with the
// SysV entry alignment (rsp % 16 == 8).
void* prepare_stack(std::byte* base) {
  auto top = reinterpret_cast<std::uintptr_t>(base + kStackBytes) &
             ~static_cast<std::uintptr_t>(15);
  auto* slot = reinterpret_cast<void**>(top - 16);
  slot[1] = nullptr;  // e2e_cal_fiber's never-used return address
  slot[0] = reinterpret_cast<void*>(&e2e_cal_fiber);
  for (int i = 1; i <= 6; ++i) slot[-i] = nullptr;  // rbp .. r15
  return slot - 6;
}

}  // namespace

extern "C" void e2e_cal_fiber() {
  for (;;) {
    Ring& r = *g_ring;
    for (int i = 0; i < kLoadsPerSwitch; ++i) r.at = r.next[r.at];
    const int me = r.cur;
    if (--r.left <= 0) e2e_cal_switch(&r.sp[me], r.host_sp);
    r.cur = (me + 1) % kFibers;
    e2e_cal_switch(&r.sp[me], r.sp[r.cur]);
  }
}

namespace elision::e2e {

double calibrate_ms() {
  Ring ring;
  // A fixed random cyclic permutation (xorshift-driven Fisher-Yates).
  std::vector<std::uint32_t> order(kTableEntries);
  for (std::uint32_t i = 0; i < kTableEntries; ++i) order[i] = i;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = kTableEntries - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % (i + 1)]);
  }
  const auto next = page_aligned<std::uint32_t>(kTableEntries);
  for (std::uint32_t i = 0; i < kTableEntries; ++i) {
    next[order[i]] = order[(i + 1) % kTableEntries];
  }
  ring.next = next.get();
  const auto stacks = page_aligned<std::byte>(kFibers * kStackBytes);
  for (int i = 0; i < kFibers; ++i) {
    ring.sp[i] = prepare_stack(stacks.get() + i * kStackBytes);
  }
  g_ring = &ring;
  const auto t0 = Clock::now();
  e2e_cal_switch(&ring.host_sp, ring.sp[0]);
  const double ms = ms_between(t0, Clock::now());
  g_ring = nullptr;
  return ms;
}

}  // namespace elision::e2e

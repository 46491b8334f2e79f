// Shared<T>: a word of simulated shared memory.
//
// Every piece of state that simulated threads share must be a Shared<T> (or
// SharedArray<T>); accesses go through the TSX engine, which performs
// conflict detection, elision, and virtual-time cost accounting. T must be
// trivially copyable and at most 8 bytes (pointers, integers, doubles,
// small enums/structs).
//
// Because every access ends in the engine's cost accounting, each one is
// also a SimThread::tick() call — and therefore a perturbation point for the
// schedule-exploration stress subsystem (src/stress, sim::PerturbConfig):
// stress runs may inject a random delay at any Shared<T> access, exploring
// interleavings a fixed seed would never produce. Code that bypasses
// Shared<T> for simulated state is invisible to conflict detection *and* to
// the stress harness; don't.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "support/align.hpp"
#include "tsx/engine.hpp"

namespace elision::tsx {

template <typename T>
class Shared {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "Shared<T> requires a trivially copyable T of at most 8 bytes");

 public:
  Shared() = default;
  explicit Shared(T v) { unsafe_set(v); }

  // Sharing the raw word with the engine: not copyable while simulated
  // threads may hold the address; plain copies are only safe during setup.
  Shared(const Shared& o) : raw_(o.raw_) {}
  Shared& operator=(const Shared& o) {
    raw_ = o.raw_;
    return *this;
  }

  T load(Ctx& ctx) const { return decode(ctx.engine().load(ctx, &raw_)); }
  void store(Ctx& ctx, T v) { ctx.engine().store(ctx, &raw_, encode(v)); }

  T exchange(Ctx& ctx, T v) {
    return decode(ctx.engine().exchange(ctx, &raw_, encode(v)));
  }

  T fetch_add(Ctx& ctx, T delta)
    requires std::is_integral_v<T>
  {
    return decode(ctx.engine().fetch_add(
        ctx, &raw_, static_cast<std::uint64_t>(delta)));
  }

  bool compare_exchange(Ctx& ctx, T expected, T desired) {
    return ctx.engine().compare_exchange(ctx, &raw_, encode(expected),
                                         encode(desired));
  }

  // --- XACQUIRE/XRELEASE-tagged operations (lock implementations only) ---
  T xacquire_exchange(Ctx& ctx, T v) {
    return decode(ctx.engine().xacquire_exchange(ctx, &raw_, encode(v)));
  }
  T xacquire_fetch_add(Ctx& ctx, T delta)
    requires std::is_integral_v<T>
  {
    return decode(ctx.engine().xacquire_fetch_add(
        ctx, &raw_, static_cast<std::uint64_t>(delta)));
  }
  bool xacquire_compare_exchange(Ctx& ctx, T expected, T desired) {
    return ctx.engine().xacquire_compare_exchange(ctx, &raw_,
                                                  encode(expected),
                                                  encode(desired));
  }
  void xrelease_store(Ctx& ctx, T v) {
    ctx.engine().xrelease_store(ctx, &raw_, encode(v));
  }
  bool xrelease_compare_exchange(Ctx& ctx, T expected, T desired) {
    return ctx.engine().xrelease_compare_exchange(ctx, &raw_,
                                                  encode(expected),
                                                  encode(desired));
  }
  T xrelease_fetch_add(Ctx& ctx, T delta)
    requires std::is_integral_v<T>
  {
    return decode(ctx.engine().xrelease_fetch_add(
        ctx, &raw_, static_cast<std::uint64_t>(delta)));
  }

  // --- setup/teardown accessors (no simulated threads running) ---
  T unsafe_get() const { return decode(raw_); }
  void unsafe_set(T v) { raw_ = encode(v); }

 private:
  friend class Engine;  // spin_while
  static std::uint64_t encode(T v) {
    std::uint64_t raw = 0;
    std::memcpy(&raw, &v, sizeof(T));
    return raw;
  }
  static T decode(std::uint64_t raw) {
    T v;
    std::memcpy(&v, &raw, sizeof(T));
    return v;
  }

  std::uint64_t raw_ = 0;
};

template <typename T, typename Pred>
T Engine::spin_while(Ctx& ctx, const Shared<T>& word, Pred pred) {
  return Shared<T>::decode(spin_word(ctx, &word.raw_, [&](std::uint64_t raw) {
    return pred(Shared<T>::decode(raw));
  }));
}

// A contiguous array of shared words. Consecutive elements share cache lines
// (8 per line), which is the realistic layout for the array-based workloads.
// The buffer is anchored to a line boundary so the element -> line grouping
// is always exactly that — elements [8k, 8k+8) on one line — instead of
// shifting with the heap address, which keeps simulations byte-identical
// when independent runs execute on different host threads.
template <typename T>
class SharedArray {
 public:
  SharedArray() = default;
  explicit SharedArray(std::size_t n) : elems_(n) {}

  void resize(std::size_t n) { elems_.resize(n); }
  std::size_t size() const { return elems_.size(); }

  Shared<T>& operator[](std::size_t i) { return elems_[i]; }
  const Shared<T>& operator[](std::size_t i) const { return elems_[i]; }

 private:
  std::vector<Shared<T>, support::LineAlignedAllocator<Shared<T>>> elems_;
};

}  // namespace elision::tsx

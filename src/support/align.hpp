// Cache-line geometry shared by the whole simulator.
#pragma once

#include <cstdint>
#include <cstddef>
#include <new>

namespace elision::support {

inline constexpr std::size_t kCacheLineBytes = 64;
inline constexpr std::size_t kCacheLineShift = 6;

// Identifier of a simulated cache line: the real address >> 6. Using real
// addresses means field co-location and false sharing behave realistically.
using LineId = std::uintptr_t;

inline LineId line_of(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) >> kCacheLineShift;
}

// A T padded out to occupy a full cache line, for contended control words.
template <typename T>
struct alignas(kCacheLineBytes) CacheAligned {
  T value{};
};

// std::vector allocator that starts the buffer on a cache-line boundary.
//
// Line ids are real addresses >> 6, so *which elements of a buffer share a
// line* is a function of the buffer base modulo the line size. An
// ordinarily malloc'd base makes that grouping an accident of allocator
// state — stable inside one process history, but not across host threads
// with per-thread malloc arenas. Anchoring every Shared-holding buffer to a line boundary makes
// the grouping a pure function of element offsets, which in-process
// parallel simulation (support/parallel.hpp) requires for byte-identical
// results. Types already declared alignas(kCacheLineBytes) get this from
// aligned operator new; this allocator extends the guarantee to buffers of
// smaller elements (e.g. packed Shared<T> words).
template <typename T>
struct LineAlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{
      alignof(T) > kCacheLineBytes ? alignof(T) : kCacheLineBytes};

  LineAlignedAllocator() = default;
  template <typename U>
  LineAlignedAllocator(const LineAlignedAllocator<U>&) {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), kAlign);
  }

  template <typename U>
  bool operator==(const LineAlignedAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const LineAlignedAllocator<U>&) const {
    return false;
  }
};

}  // namespace elision::support

// Owner of an anonymous private memory mapping that is backed on first
// touch.
//
// The region is reserved with MAP_NORESERVE, so it costs address space but no
// memory until a page is touched; the kernel then supplies that page
// zero-filled. Buffers sized for the worst case (a fiber stack, a telemetry
// ring) thus commit only what a run actually uses, and never share the malloc
// heap with the simulated objects whose host addresses are their cache-line
// ids.
//
// An optional guard page sits directly below the usable bytes and is mapped
// PROT_NONE: a downward overrun (a stack overflow) faults at once instead of
// writing into whatever memory lies below. The mapping is released on
// destruction.
#pragma once

#include <cstddef>

namespace elision::support {

class MappedRegion {
 public:
  enum class Guard : bool { kNone, kBelow };

  MappedRegion() = default;
  // Maps `bytes` (> 0) usable bytes, rounded up to whole pages, plus one
  // PROT_NONE page below them if `guard` is kBelow. Failure to map is fatal.
  explicit MappedRegion(std::size_t bytes, Guard guard = Guard::kNone);
  ~MappedRegion();

  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  // First usable byte (above the guard page, if any); nullptr when
  // default-constructed.
  std::byte* data() const { return data_; }
  // Usable bytes: the requested size rounded up to whole pages.
  std::size_t size() const { return size_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t guard_ = 0;  // bytes of PROT_NONE mapping below data_
};

}  // namespace elision::support

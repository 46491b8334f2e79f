#include "support/mapped_region.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include "support/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define ELISION_REGION_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ELISION_REGION_ASAN 1
#endif
#endif

#ifdef ELISION_REGION_ASAN
extern "C" void __asan_unpoison_memory_region(void const volatile* addr,
                                              std::size_t size);
#endif

namespace elision::support {

MappedRegion::MappedRegion(std::size_t bytes, Guard guard) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  size_ = (bytes + page - 1) / page * page;
  guard_ = guard == Guard::kBelow ? page : 0;
  // One mapping for guard and usable bytes; the guard is then revoked, so
  // the two can never be placed apart.
  void* base = mmap(nullptr, guard_ + size_, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ELISION_CHECK_MSG(base != MAP_FAILED, "mmap of a MappedRegion failed");
  if (guard_ != 0) {
    ELISION_CHECK_MSG(mprotect(base, guard_, PROT_NONE) == 0,
                      "mprotect of a MappedRegion guard page failed");
  }
  data_ = static_cast<std::byte*>(base) + guard_;
#ifdef ELISION_REGION_ASAN
  // AddressSanitizer keeps the shadow of unmapped memory. A fiber stack
  // unmapped with abandoned frames leaves its stack redzones behind, and a
  // later mapping at the same addresses would inherit them (a false
  // stack-buffer-underflow on a telemetry ring).
  __asan_unpoison_memory_region(data_, size_);
#endif
}

MappedRegion::~MappedRegion() {
  if (data_ != nullptr) munmap(data_ - guard_, guard_ + size_);
}

}  // namespace elision::support

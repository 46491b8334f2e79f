// Transactional abort causes and Intel-compatible abort status words.
//
// The status bit layout follows the RTM EAX abort status of Intel SDM Vol. 1
// ch. 16 so that fallback handlers can be written exactly as they would be
// against real TSX:
//   bit 0  XABORT    - explicit abort, code in bits [31:24]
//   bit 1  RETRY     - the transaction may succeed on retry
//   bit 2  CONFLICT  - another logical processor conflicted
//   bit 3  CAPACITY  - internal buffer overflow
//   bit 5  NESTED    - abort happened inside a nested transaction
#pragma once

#include <cstdint>

namespace elision::tsx {

enum class AbortCause : std::uint8_t {
  kNone = 0,
  kExplicit,         // XABORT instruction
  kConflict,         // data conflict (requestor wins)
  kCapacity,         // read/write set overflow
  kSpurious,         // unexplained abort (Sec 2.2: these exist and matter)
  kPause,            // PAUSE executed transactionally (Haswell aborts)
  kHleMismatch,      // XRELEASE store did not restore the lock's value
  kNesting,          // unsupported nesting (e.g. HLE inside RTM on Haswell)
  kCauseCount,
};

inline const char* to_string(AbortCause c) {
  switch (c) {
    case AbortCause::kNone: return "none";
    case AbortCause::kExplicit: return "explicit";
    case AbortCause::kConflict: return "conflict";
    case AbortCause::kCapacity: return "capacity";
    case AbortCause::kSpurious: return "spurious";
    case AbortCause::kPause: return "pause";
    case AbortCause::kHleMismatch: return "hle-mismatch";
    case AbortCause::kNesting: return "nesting";
    default: return "?";
  }
}

namespace status {
inline constexpr unsigned kExplicit = 1u << 0;
inline constexpr unsigned kRetry = 1u << 1;
inline constexpr unsigned kConflict = 1u << 2;
inline constexpr unsigned kCapacity = 1u << 3;
inline constexpr unsigned kNested = 1u << 5;

inline constexpr unsigned with_code(unsigned bits, std::uint8_t code) {
  return bits | (static_cast<unsigned>(code) << 24);
}
inline constexpr std::uint8_t code_of(unsigned status) {
  return static_cast<std::uint8_t>(status >> 24);
}
}  // namespace status

// Maps an abort cause to the status word the fallback handler observes.
inline unsigned status_of(AbortCause cause, std::uint8_t xabort_code) {
  using namespace status;
  switch (cause) {
    case AbortCause::kExplicit:
      return with_code(kExplicit | kRetry, xabort_code);
    case AbortCause::kConflict:
      return kConflict | kRetry;
    case AbortCause::kCapacity:
      return kCapacity;  // no RETRY: retrying an oversized tx cannot help
    case AbortCause::kSpurious:
      return kRetry;
    case AbortCause::kPause:
      return kRetry;
    case AbortCause::kHleMismatch:
      return 0;  // like Haswell: HLE-elision violations carry no information
    case AbortCause::kNesting:
      return kNested;
    default:
      return 0;
  }
}

// An abort never unwinds: the engine restores the innermost XBEGIN
// checkpoint (tsx::Checkpoint, pushed by Engine::attempt), which returns the
// status word above. Return value of Engine::attempt and
// Engine::run_transaction when the body ran to completion instead.
inline constexpr unsigned kCommitted = 0xFFFFFFFFu;

}  // namespace elision::tsx

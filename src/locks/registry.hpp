// The lock registry: every lock the benchmarks, figures, STAMP and stress
// can name. A row holds the lock's id, its display name (the type's kName:
// "TTAS", "Ticket-adj", "Shared-TTAS") and its capability bits; the slug,
// the lower-cased name, spells a lock in point ids and on the command line.
// with_lock() is the one place a runtime id becomes a lock type, and each
// caller passes the LockSet it supports, so it instantiates only those.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "locks/clh_lock.hpp"
#include "locks/greedy_shared_lock.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/racy_lock.hpp"
#include "locks/shared_mcs_lock.hpp"
#include "locks/shared_ttas_lock.hpp"
#include "locks/ticket_lock.hpp"
#include "locks/ttas_lock.hpp"
#include "support/check.hpp"

namespace elision::locks {

enum class LockId : unsigned char {
  kTtas, kMcs, kTicket, kTicketAdj, kClh, kClhAdj,  // exclusive only
  kSharedTtas, kSharedMcs,                          // two-mode
  kRacy, kGreedyShared                              // planted
};

enum LockCaps : unsigned {
  kSharedMode = 1u << 0,  // has CriticalSection::run_shared's reader mode
  // A deliberately broken stress self-test instrument: standard scheme
  // only, never in an experiment or a `--locks all` sweep.
  kPlanted = 1u << 1,
};

struct LockInfo {
  LockId id;
  const char* name;
  unsigned caps;
};

// The row of every LockId, in LockId order.
inline constexpr LockInfo kLockTable[] = {
    {LockId::kTtas, TtasLock::kName, 0},
    {LockId::kMcs, McsLock::kName, 0},
    {LockId::kTicket, TicketLock::kName, 0},
    {LockId::kTicketAdj, TicketLockAdjusted::kName, 0},
    {LockId::kClh, ClhLock::kName, 0},
    {LockId::kClhAdj, ClhLockAdjusted::kName, 0},
    {LockId::kSharedTtas, SharedTtasLock::kName, kSharedMode},
    {LockId::kSharedMcs, SharedMcsLock::kName, kSharedMode},
    {LockId::kRacy, RacyLock::kName, kPlanted},
    {LockId::kGreedyShared, GreedySharedLock::kName, kSharedMode | kPlanted},
};

// The type of every LockId, in LockId order.
using LockTypes =
    std::tuple<TtasLock, McsLock, TicketLock, TicketLockAdjusted, ClhLock,
               ClhLockAdjusted, SharedTtasLock, SharedMcsLock, RacyLock,
               GreedySharedLock>;

template <LockId Id>
using LockType = std::tuple_element_t<static_cast<std::size_t>(Id), LockTypes>;

static_assert(std::size(kLockTable) == std::tuple_size_v<LockTypes>);
static_assert(std::ranges::all_of(kLockTable, [](const LockInfo& row) {
  return &row - kLockTable == static_cast<std::ptrdiff_t>(row.id);
}));

constexpr const char* lock_name(LockId id) {
  return kLockTable[static_cast<std::size_t>(id)].name;
}
// Whether the lock has every bit of `caps`.
constexpr bool lock_has(LockId id, unsigned caps) {
  return (kLockTable[static_cast<std::size_t>(id)].caps & caps) == caps;
}

inline std::string lock_slug(LockId id) {
  std::string out = lock_name(id);
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

// The lock whose name is `name` without regard to case, so a slug
// ("ticket-adj") and a name ("Ticket-adj") both match.
inline std::optional<LockId> find_lock(std::string_view name) {
  const auto lower = [](unsigned char c) { return std::tolower(c); };
  for (const LockInfo& row : kLockTable) {
    if (std::ranges::equal(name, std::string_view(row.name), {}, lower,
                           lower)) {
      return row.id;
    }
  }
  return std::nullopt;
}

// Every id whose row has each bit of `with` and none of `without`, in
// table order: lock_ids(0, kPlanted) is every lock an experiment may run.
inline std::vector<LockId> lock_ids(unsigned with, unsigned without = 0) {
  std::vector<LockId> out;
  for (const LockInfo& row : kLockTable) {
    if ((row.caps & with) == with && (row.caps & without) == 0) {
      out.push_back(row.id);
    }
  }
  return out;
}

// The ids one caller supports, fixed at compile time.
template <LockId... Ids>
struct LockSet {
  static constexpr LockId kIds[] = {Ids...};
  static constexpr bool contains(LockId id) { return ((id == Ids) || ...); }
};

// The keyed-set runner's locks (rb and phase points, the figures' trees,
// hash tables and skiplists): every exclusive-only lock of the paper.
using ExclusiveLocks =
    LockSet<LockId::kTtas, LockId::kMcs, LockId::kTicket, LockId::kTicketAdj,
            LockId::kClh, LockId::kClhAdj>;
// The B+tree runner's two-mode locks.
using SharedLocks = LockSet<LockId::kSharedTtas, LockId::kSharedMcs>;
// STAMP's global lock.
using StampLocks = LockSet<LockId::kTtas, LockId::kMcs>;
// Every row, the planted instruments included: the stress harness.
template <std::size_t... I>
LockSet<static_cast<LockId>(I)...> all_rows(std::index_sequence<I...>);
using AllLocks =
    decltype(all_rows(std::make_index_sequence<std::size(kLockTable)>{}));

namespace detail {

template <typename F, LockId First, LockId... Rest>
decltype(auto) visit_lock(LockId id, F& f, LockSet<First, Rest...>) {
  if constexpr (sizeof...(Rest) == 0) {
    ELISION_CHECK_MSG(id == First, "lock outside the caller's LockSet");
    return f.template operator()<LockType<First>>();
  } else {
    if (id == First) return f.template operator()<LockType<First>>();
    return visit_lock(id, f, LockSet<Rest...>{});
  }
}

}  // namespace detail

// Returns f.template operator()<Lock>(), Lock being the type of `id`, which
// must be in Set.
template <typename Set, typename F>
decltype(auto) with_lock(LockId id, F&& f) {
  return detail::visit_lock(id, f, Set{});
}

}  // namespace elision::locks

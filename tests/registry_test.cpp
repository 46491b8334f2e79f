// The lock registry (locks/registry.hpp): every row names the type
// with_lock instantiates for it, find_lock round-trips every spelling, the
// capability sets are the ones the callers rely on, and a region under each
// lock completes through with_lock.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "locks/registry.hpp"
#include "locks/schemes.hpp"
#include "tsx/shared.hpp"

namespace elision::locks {
namespace {

template <typename Set>
std::vector<LockId> ids_of() {
  return {std::begin(Set::kIds), std::end(Set::kIds)};
}

TEST(LockRegistry, RowNameIsTheTypesName) {
  for (const LockInfo& row : kLockTable) {
    with_lock<AllLocks>(row.id, [&]<typename Lock>() {
      EXPECT_STREQ(row.name, Lock::kName);
      EXPECT_EQ(lock_has(row.id, kSharedMode), detail::kHasSharedMode<Lock>)
          << row.name;
    });
  }
}

TEST(LockRegistry, FindLockRoundTripsNamesAndSlugs) {
  for (const LockInfo& row : kLockTable) {
    EXPECT_EQ(find_lock(row.name), row.id) << row.name;
    EXPECT_EQ(find_lock(lock_slug(row.id)), row.id) << row.name;
    std::string upper = row.name;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(find_lock(upper), row.id) << row.name;
  }
  EXPECT_EQ(lock_slug(LockId::kTicketAdj), "ticket-adj");
  EXPECT_EQ(lock_slug(LockId::kSharedTtas), "shared-ttas");
  EXPECT_EQ(find_lock("bogus"), std::nullopt);
  EXPECT_EQ(find_lock("ttas2"), std::nullopt);
  EXPECT_EQ(find_lock(""), std::nullopt);
}

TEST(LockRegistry, CapabilitySets) {
  using enum LockId;
  const std::vector<LockId> exclusive = {kTtas, kMcs,        kTicket,
                                         kTicketAdj, kClh, kClhAdj};
  EXPECT_EQ(ids_of<ExclusiveLocks>(), exclusive);
  EXPECT_EQ(lock_ids(0, kSharedMode | kPlanted), exclusive);
  const std::vector<LockId> shared = {kSharedTtas, kSharedMcs};
  EXPECT_EQ(ids_of<SharedLocks>(), shared);
  EXPECT_EQ(lock_ids(kSharedMode, kPlanted), shared);
  EXPECT_EQ(lock_ids(kPlanted), (std::vector<LockId>{kRacy, kGreedyShared}));
  EXPECT_EQ(ids_of<StampLocks>(), (std::vector<LockId>{kTtas, kMcs}));
  EXPECT_EQ(ids_of<AllLocks>(), lock_ids(0));
  EXPECT_EQ(lock_ids(0).size(), std::size(kLockTable));
  EXPECT_TRUE(SharedLocks::contains(kSharedMcs));
  EXPECT_FALSE(SharedLocks::contains(kTtas));
  EXPECT_FALSE(ExclusiveLocks::contains(kRacy));
}

// Two threads each run one standard-scheme region under Lock that
// increments a shared word; returns the word.
template <typename Lock>
std::uint64_t two_increments() {
  Lock lock;
  CriticalSection<Lock> cs(ElisionPolicy::standard(), lock);
  tsx::Shared<std::uint64_t> x(0);
  sim::MachineConfig m;
  m.n_cores = 2;
  m.smt_per_core = 1;
  sim::Scheduler sched(m);
  tsx::Engine eng(sched, tsx::TsxConfig{});
  for (int t = 0; t < 2; ++t) {
    sched.spawn([&](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      const RegionResult r =
          cs.run(ctx, [&] { x.store(ctx, x.load(ctx) + 1); });
      EXPECT_FALSE(r.speculative) << Lock::kName;
    });
  }
  sched.run();
  return x.unsafe_get();
}

// Every lock but the planted RacyLock serializes the two regions.
TEST(LockRegistry, StandardRegionCompletesUnderEveryLock) {
  for (const LockInfo& row : kLockTable) {
    const std::uint64_t count = with_lock<AllLocks>(
        row.id, []<typename Lock>() { return two_increments<Lock>(); });
    if (row.id == LockId::kRacy) {
      EXPECT_GE(count, 1u);
    } else {
      EXPECT_EQ(count, 2u) << row.name;
    }
  }
}

}  // namespace
}  // namespace elision::locks

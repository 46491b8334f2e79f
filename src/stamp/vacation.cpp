// STAMP vacation: a travel-reservation system over in-memory tables.
//
// Three item relations (cars, flights, rooms) are indexed by red-black
// trees with per-item stock counters; customers accumulate reservations in a
// hash table. A client session queries several items across relations,
// reserves the best available one, and occasionally deletes a customer or
// updates the relations. Transactions are of medium length with read sets
// spanning several tree paths; "high" contention issues more queries per
// transaction over a hotter key range than "low".
#include <algorithm>
#include <cstdint>
#include <vector>

#include "ds/hashtable.hpp"
#include "ds/rbtree.hpp"
#include "stamp/detail.hpp"
#include "support/rng.hpp"
#include "tsx/shared.hpp"

namespace elision::stamp {

namespace {
constexpr std::size_t kRelations = 3;  // cars, flights, rooms
}

StampResult run_vacation(const StampConfig& cfg, bool high_contention) {
  // At least one item per relation (and in the hot slice), so a tiny scale
  // still draws its queries from a non-empty table.
  const auto items_per_relation =
      std::max<std::size_t>(1, static_cast<std::size_t>(256 * cfg.scale));
  const auto sessions_per_thread = static_cast<std::size_t>(512 * cfg.scale);
  // STAMP: the high-contention configuration issues more queries per task
  // over a narrower (hotter) slice of each relation.
  const int queries_per_session = high_contention ? 4 : 2;
  const std::uint64_t hot_range =
      high_contention ? std::max<std::size_t>(1, items_per_relation / 2)
                      : items_per_relation;

  std::vector<std::unique_ptr<ds::RbTree>> tables;
  for (std::size_t r = 0; r < kRelations; ++r) {
    tables.push_back(
        std::make_unique<ds::RbTree>(items_per_relation * 2 + 64));
    for (std::uint64_t i = 0; i < items_per_relation; ++i) {
      tables[r]->unsafe_insert(i);
    }
    tables[r]->unsafe_distribute_free_lists(cfg.threads);
  }
  // One cache line per stock counter: STAMP's reservation records are
  // heap-allocated structures, not densely packed counters, so they do not
  // false-share.
  std::vector<support::CacheAligned<tsx::Shared<std::int64_t>>> stock(
      kRelations * items_per_relation);
  for (auto& s : stock) s.value.unsafe_set(100);
  // Customer ids are drawn from [0, 4096); in the worst case every id gets a
  // record.
  ds::HashTable customers(1024, 4096 + 64);

  return detail::dispatch_lock(cfg, [&](auto& lock) {
    using Lock = std::remove_reference_t<decltype(lock)>;
    sim::Scheduler sched(cfg.machine);
    tsx::Engine eng(sched, cfg.tsx);
    locks::CriticalSection<Lock> cs(locks::ElisionPolicy::from_scheme(cfg.scheme), lock);
    std::vector<OpTally> tallies(cfg.threads);

    for (int t = 0; t < cfg.threads; ++t) {
      sched.spawn([&, t](sim::SimThread& st) {
        auto& ctx = eng.context(st);
        auto& rng = st.rng();
        for (std::size_t s = 0; s < sessions_per_thread; ++s) {
          const std::uint64_t dice = rng.next_below(100);
          if (dice < 98) {
            // Make-reservation session.
            const std::uint64_t customer = rng.next_below(4096);
            // Pre-draw the queried items so retries replay identically.
            std::uint64_t rel[8], item[8];
            for (int q = 0; q < queries_per_session; ++q) {
              rel[q] = rng.next_below(kRelations);
              item[q] = rng.next_below(hot_range);
            }
            tallies[t].add(cs.run(ctx, [&] {
              std::int64_t best = -1;
              std::size_t best_idx = 0;
              for (int q = 0; q < queries_per_session; ++q) {
                if (!tables[rel[q]]->contains(ctx, item[q])) continue;
                const std::size_t idx =
                    rel[q] * items_per_relation + item[q];
                const std::int64_t avail = stock[idx].value.load(ctx);
                if (avail > 0 && avail > best) {
                  best = avail;
                  best_idx = idx;
                }
              }
              if (best > 0) {
                stock[best_idx].value.store(ctx, best - 1);
                customers.upsert_add(ctx, customer, 1);
              }
            }));
          } else if (dice < 99) {
            // Delete-customer session.
            const std::uint64_t customer = rng.next_below(4096);
            tallies[t].add(cs.run(ctx, [&] {
              customers.erase(ctx, customer);
            }));
          } else {
            // Update-tables session: remove and re-add an item.
            const std::uint64_t r = rng.next_below(kRelations);
            const std::uint64_t add = rng.next_below(items_per_relation);
            const std::uint64_t del = rng.next_below(items_per_relation);
            tallies[t].add(cs.run(ctx, [&] {
              tables[r]->erase(ctx, del);
              tables[r]->insert(ctx, add);
            }));
          }
        }
      });
    }
    sched.run();

    bool ok = true;
    std::uint64_t stock_sum = 0;
    for (std::size_t i = 0; i < stock.size(); ++i) {
      const std::int64_t s = stock[i].value.unsafe_get();
      if (s < 0 || s > 100) ok = false;  // reservations must never oversell
      stock_sum += static_cast<std::uint64_t>(s);
    }
    std::uint64_t table_keys = 0;
    for (const auto& tbl : tables) {
      if (!tbl->unsafe_validate()) ok = false;
      table_keys += tbl->unsafe_size();
    }
    const std::uint64_t checksum =
        stock_sum * 131 + table_keys * 17 + customers.unsafe_size();
    auto r = detail::collect(high_contention ? "vacation_high"
                                             : "vacation_low",
                             checksum, sched.elapsed_cycles(), tallies);
    r.invariants_ok = ok;
    return r;
  });
}

}  // namespace elision::stamp

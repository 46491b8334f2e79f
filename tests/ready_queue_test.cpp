// Unit tests for the scheduler's ready queue (a ring sorted by
// (clock, tid)) and advance()'s SMT scaling, plus the
// schedule-equivalence suite: golden switch counts recorded from the seed's
// O(N) linear-sweep scheduler on a grid of machine shapes, which the
// ready-queue scheduler must reproduce exactly
// (the tie-break and yield decisions are the schedule, and every
// byte-identity guarantee downstream rests on them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/machine_config.hpp"
#include "sim/ready_queue.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"

namespace elision::sim {
namespace {

constexpr std::uint64_t kFin = ReadyQueue::kFinishedClock;

// Reference the queue is checked against: the seed scheduler's fused
// min/argmin sweep, first index wins ties.
ReadyQueue::Entry linear_min(const std::vector<std::uint64_t>& clocks) {
  std::uint64_t m = clocks[0];
  std::size_t mi = 0;
  for (std::size_t i = 1; i < clocks.size(); ++i) {
    if (clocks[i] < m) {
      m = clocks[i];
      mi = i;
    }
  }
  return {m, static_cast<std::int32_t>(mi)};
}

// Pops the queue's head until it is empty and checks that the heads come
// out in (clock, tid) order of the reference's live clocks: the whole ring
// is sorted, not just its head.
void expect_drains_in_order(ReadyQueue& q,
                            const std::vector<std::uint64_t>& ref) {
  std::vector<std::pair<std::uint64_t, int>> want;
  for (std::size_t t = 0; t < ref.size(); ++t) {
    if (ref[t] != kFin) want.emplace_back(ref[t], static_cast<int>(t));
  }
  std::sort(want.begin(), want.end());
  for (const auto& [clock, tid] : want) {
    ASSERT_EQ(q.min_clock(), clock);
    ASSERT_EQ(q.min_tid(), tid);
    q.set(tid, kFin);
  }
  EXPECT_EQ(q.min_clock(), kFin);
}

TEST(ReadyQueue, SingleThread) {
  ReadyQueue q;
  EXPECT_EQ(q.min_clock(), kFin);  // empty queue degrades to the sentinel
  EXPECT_EQ(q.add_thread(), 0);
  EXPECT_EQ(q.min_clock(), 0u);
  EXPECT_EQ(q.min_tid(), 0);
  q.set(0, 500);
  EXPECT_EQ(q.min_clock(), 500u);
}

TEST(ReadyQueue, TiesGoToLowestTid) {
  for (int n : {2, 5, 16, 17, 40, 256}) {
    ReadyQueue q;
    for (int t = 0; t < n; ++t) q.add_thread();
    // All clocks equal: the lowest tid must win at every size.
    for (int t = 0; t < n; ++t) q.set(t, 77);
    EXPECT_EQ(q.min_tid(), 0) << "n=" << n;
    // Tie between a middle pair only.
    for (int t = 0; t < n; ++t) q.set(t, 100 + t);
    if (n >= 4) {
      q.set(n - 1, 50);
      q.set(n - 2, 50);
      EXPECT_EQ(q.min_clock(), 50u) << "n=" << n;
      EXPECT_EQ(q.min_tid(), n - 2) << "n=" << n;
    }
  }
}

TEST(ReadyQueue, FinishSentinelLosesToLiveThreads) {
  ReadyQueue q;
  for (int t = 0; t < 20; ++t) q.add_thread();
  for (int t = 0; t < 20; ++t) q.set(t, 10 + t);
  // Finish the current minimum repeatedly: the next-lowest live thread must
  // surface each time.
  for (int t = 0; t < 19; ++t) {
    EXPECT_EQ(q.min_tid(), t);
    q.set(t, kFin);
  }
  EXPECT_EQ(q.min_tid(), 19);
  EXPECT_EQ(q.min_clock(), 29u);
  q.set(19, kFin);
  EXPECT_EQ(q.min_clock(), kFin);
}

TEST(ReadyQueue, MovesKeepTheRingSorted) {
  // set() moves of live entries, in both directions: the argmin moving up
  // (past many entries, or none), and threads anywhere in the ring moving
  // up or down, some onto a tied clock. The drain then checks every slot,
  // not only the head.
  ReadyQueue q;
  std::vector<std::uint64_t> ref(200, 0);
  for (int t = 0; t < 200; ++t) q.add_thread();
  support::Xoshiro256 rng(7);
  for (int round = 0; round < 2000; ++round) {
    const int tid = round % 2 == 0
                        ? q.min_tid()
                        : static_cast<int>(rng.next_below(200));
    const std::size_t ti = static_cast<std::size_t>(tid);
    std::uint64_t clock;
    switch (rng.next_below(4)) {
      case 0:
        clock = ref[ti] / 2;  // towards the head
        break;
      case 1:  // onto another thread's clock
        clock = ref[static_cast<std::size_t>(rng.next_below(200))];
        break;
      default:
        clock = ref[ti] + rng.next_below(round % 3 == 0 ? 3 : 5000);
        break;
    }
    ref[ti] = clock;
    q.set(tid, clock);
    const auto want = linear_min(ref);
    ASSERT_EQ(q.min_clock(), want.clock) << "round=" << round;
    ASSERT_EQ(q.min_tid(), want.tid) << "round=" << round;
  }
  expect_drains_in_order(q, ref);
}

TEST(ReadyQueue, GrowthInsertsNewThreadsInOrder) {
  // A thread registers at clock 0, which is not the back of the ring once
  // earlier threads have moved on: every add_thread() must sort its entry
  // in front of theirs (and behind any equal clock of a lower tid), up to
  // the full capacity.
  ReadyQueue q;
  std::vector<std::uint64_t> ref;
  for (int t = 0; t < static_cast<int>(ReadyQueue::kCapacity); ++t) {
    ASSERT_EQ(q.add_thread(), t);
    ref.push_back(0);
    const auto fresh = linear_min(ref);
    ASSERT_EQ(q.min_clock(), fresh.clock) << "t=" << t;
    ASSERT_EQ(q.min_tid(), fresh.tid) << "t=" << t;
    // Every third thread stays at 0 (a tie with the next registration);
    // the others move to descending clocks.
    if (t % 3 != 0) {
      const std::uint64_t clock = 1000 - static_cast<std::uint64_t>(t);
      q.set(t, clock);
      ref[static_cast<std::size_t>(t)] = clock;
    }
    const auto want = linear_min(ref);
    ASSERT_EQ(q.min_clock(), want.clock) << "t=" << t;
    ASSERT_EQ(q.min_tid(), want.tid) << "t=" << t;
  }
  expect_drains_in_order(q, ref);
}

TEST(ReadyQueue, DifferentialFuzzAgainstLinearSweep) {
  // Random set() updates mixed with exchange() steps in the batching
  // scheduler's shape: one thread "runs" with its slot parked at the
  // sentinel and a private clock; an exchange re-enters it and parks the
  // current argmin, which becomes the runner. A second pass uses 0..3-cycle
  // increments so (clock, tid) ties are common.
  support::Xoshiro256 rng(12345);
  for (const std::uint64_t max_inc : {std::uint64_t{1000}, std::uint64_t{4}}) {
    for (const int n : {1, 3, 16, 17, 31, 64, 65, 200, 256}) {
      ReadyQueue q;
      std::vector<std::uint64_t> ref;
      for (int t = 0; t < n; ++t) {
        q.add_thread();
        ref.push_back(0);
      }
      int running = -1;  // tid whose slot is parked at the sentinel
      std::uint64_t running_clock = 0;
      for (int step = 0; step < 3000; ++step) {
        const auto best = linear_min(ref);
        const std::uint64_t kind = rng.next_below(8);
        if (kind >= 4 && best.clock != kFin) {
          const std::size_t in = static_cast<std::size_t>(best.tid);
          if (running < 0) {
            // Park the argmin (the scheduler's initial dispatch).
            q.set(best.tid, kFin);
          } else {
            running_clock += rng.next_below(max_inc);
            q.exchange(running, running_clock);
            ref[static_cast<std::size_t>(running)] = running_clock;
          }
          running = best.tid;
          running_clock = ref[in];
          ref[in] = kFin;
        } else {
          const int tid = static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(n)));
          const std::size_t ti = static_cast<std::size_t>(tid);
          std::uint64_t clock;
          switch (kind) {
            case 0:
              clock = kFin;  // finish
              break;
            case 1:
              clock = ref[ti] / 2;  // a move towards the head
              break;
            default:
              clock = ref[ti] == kFin ? kFin
                                      : ref[ti] + rng.next_below(max_inc);
              break;
          }
          if (tid == running) running = -1;  // leaves the sentinel slot
          ref[ti] = clock;
          q.set(tid, clock);
        }
        const auto want = linear_min(ref);
        ASSERT_EQ(q.min_clock(), want.clock)
            << "n=" << n << " max_inc=" << max_inc << " step=" << step;
        if (want.clock != kFin) {
          ASSERT_EQ(q.min_tid(), want.tid)
              << "n=" << n << " max_inc=" << max_inc << " step=" << step;
        }
      }
    }
  }

  // Ring pass: at every size up to 16 and at sizes around the powers of two
  // up to the capacity, 10k exchange() steps, so the ring head wraps
  // around the capacity many times. Out-clocks land on the ring's edges:
  // equal to the new front, equal to the back, tied on clock with a lower
  // tid, ahead of everything, or (the round-robin case) at or past the
  // back. set() removals, re-insertions and moves of the other threads
  // happen wherever the head has wrapped to. A lone thread has no one to
  // exchange with, so n = 1 runs 10k set() steps instead.
  std::vector<int> ring_sizes;
  for (int n = 1; n <= 16; ++n) ring_sizes.push_back(n);
  for (const int n : {17, 31, 64, 65, 128, 255, 256}) ring_sizes.push_back(n);
  for (const int n : ring_sizes) {
    ReadyQueue q;
    std::vector<std::uint64_t> ref;
    for (int t = 0; t < n; ++t) {
      q.add_thread();
      ref.push_back(0);
    }
    int running = -1;  // tid whose slot is parked at the sentinel
    if (n > 1) {
      running = 0;  // the scheduler's initial dispatch parks the argmin
      q.set(0, kFin);
      ref[0] = kFin;
    }
    // Live clocks of every thread but `skip`, as (min, max) plus one random
    // live tid below `below` (-1 if none).
    auto live_range = [&](int skip, int below, std::uint64_t& lo,
                          std::uint64_t& hi, int& lower) {
      lo = kFin;
      hi = 0;
      lower = -1;
      for (int t = 0; t < n; ++t) {
        const std::uint64_t c = ref[static_cast<std::size_t>(t)];
        if (t == skip || c == kFin) continue;
        if (c < lo) lo = c;
        if (c > hi) hi = c;
        if (t < below && (lower < 0 || rng.next_bool(0.5))) lower = t;
      }
    };
    int exchanges = 0;
    for (int step = 0; n == 1 ? step < 10000 : exchanges < 10000; ++step) {
      const auto best = linear_min(ref);
      const std::uint64_t kind = rng.next_below(10);
      if (running >= 0 && kind < 7 && best.clock != kFin) {
        std::uint64_t front = 0;
        std::uint64_t back = 0;
        int lower = -1;
        live_range(best.tid, running, front, back, lower);
        std::uint64_t out;
        switch (kind) {
          case 0:  // equal to the front left after the pop
            out = front != kFin ? front : best.clock;
            break;
          case 1:  // equal to the back
            out = front != kFin ? back : best.clock;
            break;
          case 2:  // tied on clock with a lower tid
            out = lower >= 0 ? ref[static_cast<std::size_t>(lower)]
                             : best.clock + 1;
            break;
          case 3:  // ahead of everything
            out = best.clock / 2;
            break;
          default:  // round robin: at or past the back
            out = (front != kFin ? back : best.clock) + rng.next_below(4);
            break;
        }
        q.exchange(running, out);
        ref[static_cast<std::size_t>(running)] = out;
        running = best.tid;
        ref[static_cast<std::size_t>(best.tid)] = kFin;
        ++exchanges;
      } else {
        int tid = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        if (tid == running) tid = (tid + 1) % n;
        const std::size_t ti = static_cast<std::size_t>(tid);
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        int lower = -1;
        live_range(tid, n, lo, hi, lower);
        std::uint64_t clock;
        if (ref[ti] == kFin) {
          // Re-insertion: tied with a live clock, or anywhere in or just
          // past the live range.
          clock = lower >= 0 && rng.next_bool(0.5)
                      ? ref[static_cast<std::size_t>(lower)]
                      : (lo == kFin ? 0 : lo) +
                            rng.next_below((lo == kFin ? 0 : hi - lo) + 4);
        } else if (rng.next_bool(0.5)) {
          clock = kFin;  // removal (of the head, too, when it is the min)
        } else {
          clock = rng.next_bool(0.5) ? ref[ti] / 2
                                     : ref[ti] + rng.next_below(8);
        }
        ref[ti] = clock;
        q.set(tid, clock);
      }
      const auto want = linear_min(ref);
      ASSERT_EQ(q.min_clock(), want.clock) << "n=" << n << " step=" << step;
      if (want.clock != kFin) {
        ASSERT_EQ(q.min_tid(), want.tid) << "n=" << n << " step=" << step;
      }
    }
  }
}

TEST(ReadyQueueDeath, RejectsMoreThanCapacity) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ReadyQueue q;
  for (std::size_t t = 0; t < ReadyQueue::kCapacity; ++t) q.add_thread();
  EXPECT_DEATH(q.add_thread(), "kMaxSimThreads");
}

// --- schedule equivalence vs the seed scheduler ---

struct GoldenShape {
  int threads;
  unsigned cores;
  std::uint64_t per_thread;
  std::uint64_t tick;
  std::uint64_t slack;
  std::uint64_t switches;  // recorded from the seed's O(N)-sweep scheduler
  std::uint64_t elapsed;
};

// Golden values recorded by running this exact loop against the seed
// scheduler (linear sweep, 64-thread cap). Context-switch counts are the
// most schedule-sensitive observable there is: one different yield or
// tie-break decision anywhere diverges them permanently.
constexpr GoldenShape kGolden[] = {
    {1, 4u, 50000ull, 3ull, 0ull, 2ull, 150000ull},
    {2, 4u, 50000ull, 3ull, 0ull, 50003ull, 150000ull},
    {8, 4u, 200000ull, 3ull, 0ull, 1400009ull, 600000ull},
    {8, 4u, 100000ull, 7ull, 200ull, 26931ull, 800000ull},
    {16, 8u, 50000ull, 3ull, 0ull, 750017ull, 150000ull},
    {17, 8u, 50000ull, 3ull, 0ull, 800018ull, 150000ull},
    {33, 16u, 30000ull, 5ull, 0ull, 960034ull, 180000ull},
    {64, 32u, 50000ull, 3ull, 0ull, 3150065ull, 150000ull},
    {64, 32u, 50000ull, 3ull, 200ull, 47063ull, 150000ull},
};

TEST(ScheduleEquivalence, MatchesSeedSchedulerGoldenSwitchCounts) {
  // Both settings of switch-bound batching must reproduce the seed's
  // schedule exactly: batching only changes *when* the preemption bound is
  // recomputed, never its value at any decision point.
  for (const bool batch : {false, true}) {
    for (const GoldenShape& g : kGolden) {
      MachineConfig m;
      m.n_cores = g.cores;
      m.smt_per_core = 2;
      m.seed = 1;
      m.yield_slack_cycles = g.slack;
      m.batch_switch_bound = batch;
      Scheduler s(m);
      for (int t = 0; t < g.threads; ++t) {
        s.spawn([&g](SimThread& st) {
          for (std::uint64_t i = 0; i < g.per_thread; ++i) st.tick(g.tick);
        });
      }
      s.run();
      EXPECT_EQ(s.switch_count(), g.switches)
          << "t" << g.threads << "/" << g.cores << "c slack=" << g.slack
          << " batch=" << batch;
      EXPECT_EQ(s.elapsed_cycles(), g.elapsed)
          << "t" << g.threads << "/" << g.cores << "c slack=" << g.slack
          << " batch=" << batch;
    }
  }
}

TEST(ScheduleEquivalence, BatchingPreservesSchedulesAcrossSizes) {
  // Differential batching-on vs batching-off sweep across both yield-slack
  // regimes and the full 1..256 size range:
  // switch counts and elapsed cycles (the schedule's fingerprint) must be
  // bit-identical, and batching must recompute the bound once per switch.
  for (const int threads : {1, 2, 15, 16, 17, 33, 64, 128, 256}) {
    for (const std::uint64_t slack : {std::uint64_t{0}, std::uint64_t{200}}) {
      std::uint64_t switches[2] = {0, 0};
      std::uint64_t elapsed[2] = {0, 0};
      for (const int batch : {0, 1}) {
        MachineConfig m;
        m.n_cores = static_cast<unsigned>(threads + 1) / 2;
        if (m.n_cores == 0) m.n_cores = 1;
        m.smt_per_core = 2;
        m.seed = 1234;
        m.yield_slack_cycles = slack;
        m.batch_switch_bound = batch != 0;
        Scheduler s(m);
        for (int t = 0; t < threads; ++t) {
          s.spawn([t](SimThread& st) {
            // Vary per-thread work so clocks interleave non-trivially.
            for (int i = 0; i < 2000 + (t % 7) * 100; ++i) {
              st.tick(3 + static_cast<std::uint64_t>((i + t) % 5));
            }
          });
        }
        s.run();
        switches[batch] = s.switch_count();
        elapsed[batch] = s.elapsed_cycles();
        if (batch != 0) {
          // One recompute per actual thread exchange; switch_count() also
          // counts same-thread early-outs and finishes, so it bounds the
          // recomputes from above (plus the initial dispatches).
          EXPECT_GT(s.switch_bound_recomputes(), 0u)
              << "threads=" << threads << " slack=" << slack;
          EXPECT_LE(s.switch_bound_recomputes(),
                    s.switch_count() + static_cast<std::uint64_t>(threads))
              << "threads=" << threads << " slack=" << slack;
        } else {
          EXPECT_EQ(s.switch_bound_recomputes(), 0u)
              << "threads=" << threads << " slack=" << slack;
        }
      }
      EXPECT_EQ(switches[0], switches[1])
          << "threads=" << threads << " slack=" << slack;
      EXPECT_EQ(elapsed[0], elapsed[1])
          << "threads=" << threads << " slack=" << slack;
    }
  }
}

TEST(ScheduleEquivalence, BigMachineShapesRunDeterministically) {
  // Past the seed's 64-thread cap there is no seed schedule to compare
  // against; pin determinism instead (two identical runs, identical switch
  // counts) at shapes up to the 256 cap, where the ring is full.
  for (const int threads : {100, 256}) {
    std::uint64_t first = 0;
    for (int rep = 0; rep < 2; ++rep) {
      MachineConfig m;
      m.n_cores = 64;
      m.smt_per_core = 4;
      m.seed = 9;
      Scheduler s(m);
      for (int t = 0; t < threads; ++t) {
        s.spawn([](SimThread& st) {
          for (int i = 0; i < 3000; ++i) st.tick(3);
        });
      }
      s.run();
      EXPECT_GT(s.switch_count(), static_cast<std::uint64_t>(threads));
      if (rep == 0) {
        first = s.switch_count();
      } else {
        EXPECT_EQ(s.switch_count(), first) << "threads=" << threads;
      }
    }
  }
}

TEST(Scheduler, AdvanceSaturatesInsteadOfWrapping) {
  // A perturbation-sized clock jump near the finished sentinel used to wrap
  // (the SMT-scaled double round-trip overflows uint64), re-sorting the
  // thread to the front of the schedule. It must saturate just below the
  // sentinel and stay monotonic instead.
  MachineConfig m;
  m.n_cores = 1;
  m.smt_per_core = 2;  // two live siblings: the 1.25 multiplier is active
  Scheduler s(m);
  std::vector<std::uint64_t> seen;
  s.spawn([&seen](SimThread& st) {
    for (int i = 0; i < 4; ++i) {
      st.advance(std::uint64_t{1} << 62);
      seen.push_back(st.now());
    }
    st.advance(UINT64_MAX);  // the largest possible jump, from saturation
    seen.push_back(st.now());
  });
  s.spawn([](SimThread& st) { st.advance(1); });  // keeps the sibling live
  s.run();
  ASSERT_EQ(seen.size(), 5u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i], seen[i - 1]) << "clock moved backwards at step " << i;
  }
  for (const std::uint64_t c : seen) {
    EXPECT_LT(c, ReadyQueue::kFinishedClock)
        << "live thread reached the finished sentinel";
  }
  EXPECT_EQ(seen.back(), ReadyQueue::kFinishedClock - 1);
}

TEST(Scheduler, LastRunnableThreadNeverYields) {
  // With no other runnable thread the queue's head is the finished
  // sentinel, and the sentinel plus a nonzero slack wraps to a small clock:
  // a yield test that adds the slack to it fires at every access. A lone
  // thread, and the last thread left after its siblings finish, must run
  // to the end without a yield, with batching off as well as on.
  for (const bool batch : {false, true}) {
    MachineConfig m;
    m.n_cores = 2;
    m.smt_per_core = 2;
    m.yield_slack_cycles = 200;
    m.batch_switch_bound = batch;
    {
      Scheduler s(m);
      s.spawn([](SimThread& st) {
        for (int i = 0; i < 5000; ++i) st.tick(3);
      });
      s.run();
      // The dispatch from the host and the finish, nothing in between.
      EXPECT_EQ(s.switch_count(), 2u) << "batch=" << batch;
      EXPECT_EQ(s.elapsed_cycles(), 15000u) << "batch=" << batch;
    }
    {
      Scheduler s(m);
      int finished = 0;
      std::uint64_t lone_switches = 0;
      std::uint64_t lone_cycles = 0;
      s.spawn([&](SimThread& st) {
        while (finished < 2) st.tick(3);
        const std::uint64_t switches = s.switch_count();
        const std::uint64_t start = st.now();
        for (int i = 0; i < 5000; ++i) st.tick(3);
        lone_switches = s.switch_count() - switches;
        lone_cycles = st.now() - start;
      });
      for (int t = 1; t < 3; ++t) {
        s.spawn([&finished](SimThread& st) {
          for (int i = 0; i < 1000; ++i) st.tick(5);
          ++finished;
        });
      }
      s.run();
      EXPECT_EQ(finished, 2) << "batch=" << batch;
      EXPECT_EQ(lone_switches, 0u) << "batch=" << batch;
      EXPECT_EQ(lone_cycles, 15000u) << "batch=" << batch;  // no SMT sibling
    }
  }
}

TEST(Scheduler, SmtMemoMatchesTheDoubleProduct) {
  // While a sibling shares the core, advance(c) adds exactly the seed's
  // (uint64)((double)c * smt_slowdown), whether the delta comes from the
  // construction-time table (c < kSmtMemoCycles) or the multiply above it;
  // once the sibling has finished it adds exactly c.
  std::vector<std::uint64_t> cycles;
  for (std::uint64_t c = 0; c < Scheduler::kSmtMemoCycles; ++c) {
    cycles.push_back(c);
  }
  for (std::uint64_t c = Scheduler::kSmtMemoCycles; c < 4096; ++c) {
    cycles.push_back(c);
  }
  for (double c = 4096; c < 1e12; c *= 1.37) {
    cycles.push_back(static_cast<std::uint64_t>(c));
  }
  for (const double s : {1.0, 1.25, 1.1, 4.0 / 3.0, 1.7, 2.5}) {
    MachineConfig m;
    m.n_cores = 1;
    m.smt_per_core = 2;
    m.smt_slowdown = s;
    Scheduler sched(m);
    std::uint64_t paired_bad = 0;
    std::uint64_t alone_bad = 0;
    sched.spawn([&](SimThread& st) {
      for (const std::uint64_t c : cycles) {
        const std::uint64_t before = st.now();
        st.advance(c);
        const auto want =
            static_cast<std::uint64_t>(static_cast<double>(c) * s);
        if (st.now() - before != want && ++paired_bad <= 3) {
          ADD_FAILURE() << "s=" << s << " c=" << c << ": added "
                        << st.now() - before << ", want " << want;
        }
      }
      st.yield();  // the sibling (clock 0) runs and finishes
      for (const std::uint64_t c : cycles) {
        const std::uint64_t before = st.now();
        st.advance(c);
        if (st.now() - before != c && ++alone_bad <= 3) {
          ADD_FAILURE() << "s=" << s << " c=" << c << " alone: added "
                        << st.now() - before;
        }
      }
    });
    bool sibling_ran = false;
    sched.spawn([&sibling_ran](SimThread&) { sibling_ran = true; });
    sched.run();
    EXPECT_TRUE(sibling_ran);
    EXPECT_EQ(paired_bad, 0u) << "s=" << s;
    EXPECT_EQ(alone_bad, 0u) << "s=" << s;
  }
}

TEST(SchedulerDeath, RejectsSmtSlowdownOutsideTheTableRange) {
  // The table's entries must stay below 2^52 for advance()'s unchecked
  // addition; a negative or NaN slowdown has no exact conversion at all.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const double s : {-1.0, 17592186044416.0 /* 2^44 */,
                         std::numeric_limits<double>::quiet_NaN()}) {
    MachineConfig m;
    m.smt_slowdown = s;
    EXPECT_DEATH({ Scheduler sched(m); }, "smt_slowdown") << s;
  }
}

TEST(Scheduler, SpawnsUpToMaxSimThreads) {
  MachineConfig m;
  m.n_cores = 128;
  Scheduler s(m);
  std::uint64_t done = 0;
  for (int t = 0; t < kMaxSimThreads; ++t) {
    s.spawn([&done](SimThread& st) {
      st.tick(5);
      ++done;
    });
  }
  s.run();
  EXPECT_EQ(done, static_cast<std::uint64_t>(kMaxSimThreads));
}

}  // namespace
}  // namespace elision::sim

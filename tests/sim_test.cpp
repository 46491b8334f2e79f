#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "tsx/shared.hpp"

namespace elision::sim {
namespace {

MachineConfig one_core_no_smt() {
  MachineConfig cfg;
  cfg.n_cores = 8;  // spread threads so the SMT model stays out of the way
  cfg.smt_per_core = 1;
  return cfg;
}

TEST(Fiber, RunsEntryOnSwitch) {
  static int value;
  value = 0;
  static Fiber host;
  static Fiber* worker;
  Fiber w(
      [](void*) {
        Fiber::on_fiber_entry();  // required first on every fresh fiber stack
        value = 42;
        Fiber::switch_to(*worker, host);
      },
      nullptr, 64 * 1024);
  worker = &w;
  Fiber::switch_to(host, w);
  EXPECT_EQ(value, 42);
}

TEST(Scheduler, RunsAllThreadsToCompletion) {
  Scheduler sched(one_core_no_smt());
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    sched.spawn([&done](SimThread& t) {
      t.tick(10);
      ++done;
    });
  }
  sched.run();
  EXPECT_EQ(done, 5);
}

TEST(Scheduler, EarliestClockRunsFirst) {
  Scheduler sched(one_core_no_smt());
  std::vector<int> order;
  // Thread 0 advances 100 per step, thread 1 advances 10: thread 1 should
  // run ~10 steps per thread-0 step.
  sched.spawn([&order](SimThread& t) {
    for (int i = 0; i < 3; ++i) {
      order.push_back(0);
      t.tick(100);
    }
  });
  sched.spawn([&order](SimThread& t) {
    for (int i = 0; i < 30; ++i) {
      order.push_back(1);
      t.tick(10);
    }
  });
  sched.run();
  // After thread 0's first step (clock 100), thread 1 must take ~10 steps
  // before thread 0 runs again.
  int ones_before_second_zero = 0;
  int zeros = 0;
  for (const int tid : order) {
    if (tid == 0) {
      ++zeros;
      if (zeros == 2) break;
    } else if (zeros == 1) {
      ++ones_before_second_zero;
    }
  }
  EXPECT_GE(ones_before_second_zero, 9);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  auto run_once = [] {
    Scheduler sched(one_core_no_smt());
    std::vector<std::pair<int, std::uint64_t>> trace;
    for (int i = 0; i < 4; ++i) {
      sched.spawn([&trace, i](SimThread& t) {
        for (int k = 0; k < 50; ++k) {
          trace.emplace_back(i, t.now());
          t.tick(7 + static_cast<std::uint64_t>(t.rng().next_below(20)));
        }
      });
    }
    sched.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, VirtualDeadlineStopsLoops) {
  Scheduler sched(one_core_no_smt());
  std::vector<std::uint64_t> iters(3, 0);
  for (int i = 0; i < 3; ++i) {
    sched.spawn([&iters, i](SimThread& t) {
      while (!t.stop_requested()) {
        ++iters[i];
        t.tick(100);
      }
    });
  }
  sched.run_for(10000);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(static_cast<double>(iters[i]), 100.0, 2.0) << i;
  }
  EXPECT_GE(sched.elapsed_cycles(), 10000u);
}

TEST(Scheduler, ElapsedIsMaxClock) {
  Scheduler sched(one_core_no_smt());
  sched.spawn([](SimThread& t) { t.tick(123); });
  sched.spawn([](SimThread& t) { t.tick(4567); });
  sched.run();
  EXPECT_EQ(sched.elapsed_cycles(), 4567u);
}

TEST(Scheduler, SmtSiblingsRunSlower) {
  MachineConfig cfg;
  cfg.n_cores = 2;
  cfg.smt_per_core = 2;
  cfg.smt_slowdown = 2.0;
  Scheduler sched(cfg);
  // Threads 0 and 2 share core 0; thread 1 is alone on core 1 only until
  // thread 3 would arrive — spawn exactly 3: threads 0,2 are siblings,
  // thread 1 runs alone.
  std::vector<std::uint64_t> clocks(3);
  for (int i = 0; i < 3; ++i) {
    sched.spawn([&clocks, i](SimThread& t) {
      // tick() (advance + yield) so the siblings genuinely co-run.
      for (int k = 0; k < 10; ++k) t.tick(10);
      clocks[i] = t.now();
    });
  }
  sched.run();
  EXPECT_EQ(clocks[1], 100u);       // alone on its core
  EXPECT_EQ(clocks[0], 200u);       // sibling pair pays 2x
  EXPECT_EQ(clocks[2], 200u);
}

TEST(Scheduler, SmtSlowdownEndsWhenSiblingFinishes) {
  MachineConfig cfg;
  cfg.n_cores = 1;
  cfg.smt_per_core = 2;
  cfg.smt_slowdown = 2.0;
  Scheduler sched(cfg);
  std::uint64_t late_clock = 0;
  sched.spawn([](SimThread& t) { t.advance(10); });  // finishes immediately
  sched.spawn([&late_clock](SimThread& t) {
    t.yield();  // let the sibling finish first
    while (t.now() < 1000) t.advance(10);
    late_clock = t.now();
  });
  sched.run();
  // The first advance may pay the 2x penalty, but later ones must not.
  EXPECT_LT(late_clock, 1040u);
}

TEST(Scheduler, YieldSlackAllowsBatching) {
  MachineConfig strict = one_core_no_smt();
  MachineConfig slack = one_core_no_smt();
  slack.yield_slack_cycles = 1000;
  auto count_switches = [](MachineConfig cfg) {
    Scheduler sched(cfg);
    for (int i = 0; i < 4; ++i) {
      sched.spawn([](SimThread& t) {
        for (int k = 0; k < 100; ++k) t.tick(10);
      });
    }
    sched.run();
    return sched.switch_count();
  };
  EXPECT_GT(count_switches(strict), count_switches(slack));
}

TEST(Scheduler, StressManyThreadsManySwitches) {
  Scheduler sched(one_core_no_smt());
  std::uint64_t total = 0;
  for (int i = 0; i < 32; ++i) {
    sched.spawn([&total](SimThread& t) {
      for (int k = 0; k < 2000; ++k) {
        ++total;
        t.tick(1 + t.rng().next_below(5));
      }
    });
  }
  sched.run();
  EXPECT_EQ(total, 32u * 2000u);
}

// The literal loop a parked spin-waiter's replay stands in for, with every
// load quiet: from `clock`, next step the load iff `load_next`, tick `load`
// and `pause` cycles alternately until the clock crosses `bound`.
struct SpinStop {
  std::uint64_t clock;
  bool load_next;
};
SpinStop literal_spin(std::uint64_t clock, bool load_next,
                      std::uint64_t bound, std::uint64_t load,
                      std::uint64_t pause) {
  for (;;) {
    if (load_next) {
      clock += load;
      load_next = false;
      if (clock > bound) return {clock, load_next};
    }
    clock += pause;
    load_next = true;
    if (clock > bound) return {clock, load_next};
  }
}

// A spin-wait keeps its probe by reference: a named probe is accepted, and
// a temporary one, which would dangle once the statement ends, does not
// compile.
using QuietProbe = decltype([] { return true; });
template <typename Probe>
constexpr bool kStartsSpin =
    requires(SimThread& t, Probe&& probe, const std::uint64_t* version) {
      t.start_spin(std::forward<Probe>(probe), version, 1, 1);
    };
static_assert(kStartsSpin<QuietProbe&>);
static_assert(!kStartsSpin<QuietProbe>);

// A replay jumps a quiet waiter's clock to the tick that crosses the bound.
// Thread 0 waits the way Engine::spin_word does on a flag only thread 1
// sets; thread 1 moves its own clock to where the bound it will hand the
// waiter lands (its clock + slack), yields, and checks the waiter's clock
// and phase against the literal loop. Bounds sit at the waiter's clock, at
// every edge of the first round, and whole rounds further on. The flag's
// write bumps the version the wait watches, as an engine write would.
TEST(Scheduler, QuietReplayJumpEqualsLiteralLoop) {
  support::Xoshiro256 rng(0x51A7E);
  int load_stops = 0;
  int pause_stops = 0;
  int jumps = 0;
  for (const double slowdown : {1.0, 1.25, 1.7}) {
    for (const bool smt : {false, true}) {
      for (const std::uint64_t slack : {0, 200}) {
        for (int machine = 0; machine < 4; ++machine) {
          MachineConfig cfg;
          cfg.n_cores = smt ? 1 : 2;  // siblings on one core, or alone
          cfg.smt_per_core = 2;
          cfg.smt_slowdown = slowdown;
          cfg.yield_slack_cycles = slack;
          const std::uint64_t load_cycles = 1 + rng.next_below(255);
          const std::uint64_t pause_cycles = rng.next_below(256);
          auto scaled = [&](std::uint64_t c) {
            return smt ? static_cast<std::uint64_t>(static_cast<double>(c) *
                                                    slowdown)
                       : c;
          };
          const std::uint64_t load = scaled(load_cycles);
          const std::uint64_t period = load + scaled(pause_cycles);
          Scheduler sched(cfg);
          SpinWait* wait = nullptr;
          bool released = false;
          std::uint64_t version = 0;
          sched.spawn([&](SimThread& t) {
            auto quiet = [&] { return !released; };
            SpinWait& w =
                t.start_spin(quiet, &version, load_cycles, pause_cycles);
            wait = &w;
            for (;;) {
              if (w.load_next) {
                if (!w.still_quiet()) return;
                t.spin_tick(w.load_cycles, /*load_next=*/false);
              } else {
                t.spin_tick(w.pause_cycles, /*load_next=*/true);
              }
            }
          });
          sched.spawn([&](SimThread& t) {
            SimThread& waiter = sched.thread(0);
            for (int trial = 0; trial < 64; ++trial) {
              // The waiter is parked past this thread's bound.
              const std::uint64_t c0 = waiter.now();
              const bool phase = wait->load_next;
              ASSERT_LT(t.now(), c0);
              const std::uint64_t first_load = phase ? c0 : c0 + period - load;
              const std::uint64_t edges[] = {0,          load - 1, load,
                                             load + 1,   period - 1, period,
                                             rng.next_below(period)};
              const std::uint64_t rounds[] = {0, 1, 2 + rng.next_below(40)};
              std::uint64_t bound = first_load +
                                    rounds[rng.next_below(3)] * period +
                                    edges[rng.next_below(7)];
              if (rng.next_below(8) == 0) bound = c0;
              // min(others) + slack never lies below the picked waiter's
              // clock + slack.
              bound = std::max(bound, c0 + slack);
              const SpinStop want =
                  literal_spin(c0, phase, bound, load, period - load);
              while (t.now() < bound - slack) {
                t.advance(bound - slack - t.now() > 512 ? 256 : 1);
              }
              ASSERT_EQ(t.now(), bound - slack);
              t.yield();  // the waiter is earlier: replayed against `bound`
              SCOPED_TRACE(::testing::Message()
                           << "slowdown " << slowdown << " smt " << smt
                           << " L " << load << " T " << period << " from "
                           << c0 << " phase " << phase << " bound " << bound);
              ASSERT_EQ(waiter.now(), want.clock);
              ASSERT_EQ(wait->load_next, want.load_next);
              ++(want.load_next ? pause_stops : load_stops);
              if (bound >= first_load + period) ++jumps;
            }
            released = true;
            ++version;
          });
          sched.run();
        }
      }
    }
  }
  // Both crossing ticks and the jump past the first round all ran.
  EXPECT_GT(load_stops, 100);
  EXPECT_GT(pause_stops, 100);
  EXPECT_GT(jumps, 100);
}

TEST(Scheduler, PerThreadRngsDiffer) {
  Scheduler sched(one_core_no_smt());
  std::vector<std::uint64_t> first(4);
  for (int i = 0; i < 4; ++i) {
    sched.spawn([&first, i](SimThread& t) { first[i] = t.rng().next(); });
  }
  sched.run();
  for (int i = 1; i < 4; ++i) EXPECT_NE(first[0], first[i]);
}

TEST(SchedulerDeath, MaxSwitchesDetectsRunaway) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MachineConfig cfg;
        cfg.max_switches = 1000;
        Scheduler sched(cfg);
        // Two threads ping-ponging forever without ever finishing.
        sched.spawn([](SimThread& t) {
          for (;;) {
            t.advance(1);
            t.yield();
          }
        });
        sched.spawn([](SimThread& t) {
          for (;;) {
            t.advance(1);
            t.yield();
          }
        });
        sched.run();
      },
      "max_switches");
}

TEST(SchedulerDeath, SpinWaitersOnUnchangedLinesDeadlock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(one_core_no_smt());
        tsx::Engine eng(sched);
        // Each thread waits for a word nobody ever writes. Once both are
        // parked in the scheduler, no fiber can run to change either line.
        std::vector<tsx::Shared<std::uint64_t>> words(2);
        for (auto& w : words) {
          w.unsafe_set(1);
          sched.spawn([&eng, &w](SimThread& t) {
            eng.spin_while(eng.context(t), w,
                           [](std::uint64_t v) { return v != 0; });
          });
        }
        sched.run();
      },
      "every simulated thread is spin-waiting");
}

TEST(SchedulerDeath, SpinRoundOfZeroCyclesFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Two siblings on one core at a slowdown the constructor admits,
        // but at which every tick below 1000 cycles scales to 0: the
        // waiter's clock would never move, so it would spin forever.
        MachineConfig cfg;
        cfg.n_cores = 1;
        cfg.smt_per_core = 2;
        cfg.smt_slowdown = 0.001;
        Scheduler sched(cfg);
        tsx::Engine eng(sched);
        tsx::Shared<std::uint64_t> word;
        word.unsafe_set(1);
        sched.spawn([&eng, &word](SimThread& t) {
          eng.spin_while(eng.context(t), word,
                         [](std::uint64_t v) { return v != 0; });
        });
        sched.spawn([&eng, &word](SimThread& t) {
          t.advance(1000000);
          word.store(eng.context(t), 0);
        });
        sched.run();
      },
      "advances the clock by 0 cycles");
}

// Frame address of the overflow test's thread body, near the top of its
// stack; the SIGSEGV handler below compares the fault address with it.
std::uintptr_t g_stack_top = 0;
constexpr std::size_t kOverflowStackBytes = 16 * 1024;

void report(const char* msg) {
  (void)!write(STDERR_FILENO, msg, std::strlen(msg));
}

void on_overflow_fault(int, siginfo_t* info, void*) {
  // The guard page is the page right below the usable stack, whose end lies
  // less than a page above the body's frame.
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t bottom = g_stack_top - kOverflowStackBytes;
  if (addr + 2 * page >= bottom && addr < bottom + page) {
    report("fault in the guard page below the fiber stack\n");
    _exit(3);
  }
  report("fault outside the guard page\n");
  _exit(4);
}

// Recurses until the stack runs out (the limit is never reached; it is
// volatile only so the compiler cannot call the recursion infinite). The
// frame stays well under a page, so the first write past the stack's end
// lands in the guard page.
volatile std::uint64_t g_depth_limit = ~std::uint64_t{0};

[[gnu::noinline]] std::uint64_t recurse(std::uint64_t depth) {
  if (depth == g_depth_limit) return 0;
  volatile char frame[192];
  frame[0] = static_cast<char>(depth);
  return recurse(depth + 1) + static_cast<std::uint64_t>(frame[0]);
}

TEST(SchedulerDeath, StackOverflowFaultsAtTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        // The handler needs a stack of its own: the faulting one is full.
        static char alt_stack[64 * 1024];
        stack_t ss{};
        ss.ss_sp = alt_stack;
        ss.ss_size = sizeof alt_stack;
        sigaltstack(&ss, nullptr);
        struct sigaction sa{};
        sa.sa_sigaction = on_overflow_fault;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigaction(SIGSEGV, &sa, nullptr);
        MachineConfig cfg = one_core_no_smt();
        cfg.fiber_stack_bytes = kOverflowStackBytes;
        Scheduler sched(cfg);
        sched.spawn([](SimThread&) {
          g_stack_top =
              reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
          (void)recurse(0);
        });
        sched.run();
      },
      ::testing::ExitedWithCode(3), "fault in the guard page");
}

}  // namespace
}  // namespace elision::sim

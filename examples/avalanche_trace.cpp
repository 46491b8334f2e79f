// The avalanche effect, event by event.
//
// Eight threads run lookup-only critical sections over one elided MCS lock —
// a workload with zero data conflicts. We inject a single spurious abort and
// print the telemetry event trace (tsx/telemetry.hpp) around it: the victim
// re-issues its acquiring SWAP non-transactionally (the lock-acquire event),
// which invalidates the elided lock line in every other thread's read set,
// aborting all of them at once (Ch. 3). This is the observability that real
// HLE hardware denies ("it is not possible to count aborts when using
// Haswell's HLE").
#include <cstdio>
#include <vector>

#include "ds/rbtree.hpp"
#include "locks/mcs_lock.hpp"
#include "locks/schemes.hpp"
#include "tsx/telemetry.hpp"

using namespace elision;

int main() {
  if (!tsx::kTelemetryCompiled) {
    std::printf("telemetry was compiled out (ELISION_TELEMETRY=OFF); "
                "nothing to narrate\n");
    return 0;
  }
  constexpr std::size_t kSize = 512;
  ds::RbTree tree(kSize * 4 + 256);
  support::Xoshiro256 fill(7);
  std::size_t filled = 0;
  while (filled < kSize) {
    if (tree.unsafe_insert(fill.next_below(kSize * 2))) ++filled;
  }
  tree.unsafe_distribute_free_lists(8);

  locks::McsLock lock;
  locks::CriticalSection<locks::McsLock> cs(locks::ElisionPolicy::hle(), lock);

  sim::MachineConfig machine;
  tsx::TsxConfig tsx_cfg;
  tsx_cfg.spurious_per_access = 0;
  tsx_cfg.spurious_per_begin = 2e-4;  // make the trigger arrive quickly
  sim::Scheduler sched(machine);
  tsx::Engine eng(sched, tsx_cfg);
  tsx::Telemetry telemetry;
  eng.set_telemetry(&telemetry);

  std::vector<std::uint64_t> spec(8), nonspec(8);
  for (int t = 0; t < 8; ++t) {
    sched.spawn([&, t](sim::SimThread& st) {
      auto& ctx = eng.context(st);
      while (!st.stop_requested()) {
        const std::uint64_t key = st.rng().next_below(kSize * 2);
        const auto r = cs.run(ctx, [&] { tree.contains(ctx, key); });
        (r.speculative ? spec : nonspec)[t]++;
      }
    });
  }
  sched.run_for(machine.cycles(0.0002));

  // Find the first abort and narrate the window around it.
  const std::vector<tsx::TelemetryEvent> events = telemetry.merged();
  std::size_t trigger = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == tsx::EventKind::kTxAbort) {
      trigger = i;
      break;
    }
  }
  std::printf("Lookup-only workload, HLE'd MCS lock, 8 threads: no data "
              "conflicts exist.\n\n");
  if (trigger == events.size()) {
    std::printf("(no abort occurred in this window — increase the duration)\n");
    return 0;
  }
  std::printf("%-10s %-7s %-13s %-10s %s\n", "cycle", "thread", "event",
              "cause", "note");
  const std::uint64_t t0 = events[trigger].timestamp;
  bool convoy_started = false;
  for (std::size_t i = trigger; i < events.size(); ++i) {
    const auto& e = events[i];
    if (e.timestamp > t0 + 4000) break;
    if (e.kind == tsx::EventKind::kTxBegin) continue;
    const char* note = "";
    if (i == trigger) {
      note = "<- the trigger: one unlucky abort";
    } else if (e.kind == tsx::EventKind::kLockAcquire && !convoy_started) {
      convoy_started = true;
      note = "<- re-issued acquiring SWAP: writes the elided lock line";
    } else if (e.kind == tsx::EventKind::kTxAbort &&
               e.cause == tsx::AbortCause::kConflict) {
      note = "<- aborted by the re-issued lock acquisition (avalanche)";
    } else if (e.kind == tsx::EventKind::kTxAbort &&
               e.cause == tsx::AbortCause::kPause) {
      note = "<- arrived while serialized: doomed spin, aborts";
    }
    std::printf("%-10llu %-7d %-13s %-10s %s\n",
                static_cast<unsigned long long>(e.timestamp - t0), e.thread,
                to_string(e.kind),
                e.kind == tsx::EventKind::kTxAbort ? to_string(e.cause) : "",
                note);
  }

  std::uint64_t s = 0, n = 0;
  for (int t = 0; t < 8; ++t) {
    s += spec[t];
    n += nonspec[t];
  }
  std::printf("\nTotals: %llu speculative, %llu non-speculative operations "
              "— with zero data conflicts.\n",
              static_cast<unsigned long long>(s),
              static_cast<unsigned long long>(n));
  std::printf("Run again with Scheme::kHleScm and the serialization "
              "disappears.\n");
  return 0;
}

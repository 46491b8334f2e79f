#include "harness/micro_point.hpp"

#include <vector>

#include "sim/machine_config.hpp"
#include "sim/scheduler.hpp"
#include "support/align.hpp"
#include "support/check.hpp"
#include "tsx/engine.hpp"

namespace elision::harness {

RunStats run_micro_point(const MicroPoint& p) {
  ELISION_CHECK_MSG(
      p.shared_period != 0 && (p.shared_period & (p.shared_period - 1)) == 0,
      "MicroPoint::shared_period must be a power of two");
  BenchConfig cfg;
  cfg.threads = p.threads;
  cfg.machine.seed = p.seed;
  apply_machine_shape(p, cfg.machine);
  cfg = simulated_config(cfg);
  sim::Scheduler sched(cfg.machine);
  tsx::Engine engine(sched, cfg.tsx);

  // Stable backing store for the simulated lines (never reallocated while
  // threads run). Line ids are real addresses >> 6, so the grouping of words
  // into lines depends on the base address mod 64; align the array to the
  // line size so the conflict pattern — and with it every simulated metric —
  // is identical across processes (parallel workers must reproduce the
  // sequential run exactly).
  constexpr std::size_t kWordsPerLine =
      support::kCacheLineBytes / sizeof(std::uint64_t);
  std::vector<std::uint64_t> storage(p.array_words + kWordsPerLine, 0);
  const auto base = reinterpret_cast<std::uintptr_t>(storage.data());
  std::uint64_t* const words = reinterpret_cast<std::uint64_t*>(
      (base + support::kCacheLineBytes - 1) &
      ~static_cast<std::uintptr_t>(support::kCacheLineBytes - 1));

  struct PerThread {
    std::uint64_t ops = 0;
    std::uint64_t spec_ops = 0;
    std::uint64_t nonspec_ops = 0;
    std::uint64_t attempts = 0;
  };
  std::vector<PerThread> acc(static_cast<std::size_t>(p.threads));

  // Each op is one RTM transaction: 8 strided reads and one write, mostly
  // within the thread's own stripe of the array, with a shared hot line
  // mixed in every 16th op so conflict detection and aborts stay exercised.
  const std::size_t stripe = p.array_words / static_cast<std::size_t>(p.threads);
  for (int t = 0; t < p.threads; ++t) {
    sched.spawn([&, t](sim::SimThread& st) {
      tsx::Ctx& ctx = engine.context(st);
      auto& rng = st.rng();
      PerThread& a = acc[static_cast<std::size_t>(t)];
      const std::size_t base = static_cast<std::size_t>(t) * stripe;
      for (std::uint64_t op = 0; op < p.ops_per_thread; ++op) {
        const bool shared = (op & (p.shared_period - 1)) == 0;
        const std::size_t lo = shared ? 0 : base;
        const std::size_t span = shared ? p.array_words : stripe;
        // start < array_words (lo + span never exceeds it), so the strided
        // indices below wrap by repeated subtraction instead of a hardware
        // divide in the per-access loop the simulator is timing around (one
        // iteration in practice: the stride span 7*17 is tiny next to the
        // array).
        const std::size_t start = lo + rng.next_below(span);
        bool committed = false;
        int tries = 0;
        while (!committed && tries < 8) {
          ++tries;
          const unsigned status = engine.run_transaction(ctx, [&] {
            std::uint64_t sum = 0;
            for (std::size_t i = 0; i < 8; ++i) {
              std::size_t idx = start + i * 17;
              while (idx >= p.array_words) idx -= p.array_words;
              sum += engine.load(ctx, &words[idx]);
            }
            engine.store(ctx, &words[start], sum + 1);
          });
          committed = status == tsx::kCommitted;
        }
        if (committed) {
          ++a.spec_ops;
        } else {
          // Non-speculative fallback: the same update, directly.
          engine.fetch_add(ctx, &words[start], 1);
          ++tries;
          ++a.nonspec_ops;
        }
        ++a.ops;
        a.attempts += static_cast<std::uint64_t>(tries);
      }
    });
  }
  sched.run();

  RunStats out;
  out.ghz = cfg.machine.ghz;
  out.elapsed_cycles = sched.elapsed_cycles();
  out.tx = engine.total_stats();
  out.fp_bound_recomputes = sched.switch_bound_recomputes();
  for (const PerThread& a : acc) {
    out.ops += a.ops;
    out.spec_ops += a.spec_ops;
    out.nonspec_ops += a.nonspec_ops;
    out.attempts += a.attempts;
  }
  return out;
}

}  // namespace elision::harness

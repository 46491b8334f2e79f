// Outside-in span tracing for the end-to-end benchmark. Spans are recorded
// by the benchmark's own code around each call it makes into a layer; the
// program itself is not instrumented.
//
// Self time is attributed from outside: simulated threads are fibers on one
// host thread, so a span can be suspended mid-call while other fibers run.
// At every span boundary the tracer reads the scheduler's switch_count().
// If it did not move since the previous boundary, the same fiber ran the
// whole interval and it belongs to that fiber's innermost open span;
// otherwise the interval crossed a context switch and goes to
// sim.switched_ms, unattributed.
#pragma once

#include <x86intrin.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "e2e.hpp"
#include "tsx/tx_context.hpp"

namespace elision::e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Boundaries are timestamped with the TSC (about half the cost of
// steady_clock::now() here) and converted to time with the rep's own
// TSC/steady_clock ratio.
class Tracer {
 public:
  // Spans retained for write_chrome(); later spans only feed the sums.
  static constexpr std::size_t kMaxKeptSpans = 100000;

  // keep_spans: retain spans for write_chrome() (the first traced rep only).
  explicit Tracer(bool keep_spans) : keep_spans_(keep_spans) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void start_rep() {
    rep_start_ = Clock::now();
    start_tsc_ = __rdtsc();
  }
  void open(Layer layer, tsx::Ctx& ctx);
  void close(tsx::Ctx& ctx);
  // run_workload returned: the interval since the last boundary is the
  // harness's collect phase.
  void end_rep();

  void fill(RepResult& r) const;

  // Chrome trace-event JSON (chrome://tracing, Perfetto): one track per
  // simulated thread, host-time microseconds since rep start.
  bool write_chrome(const char* path) const;

 private:
  struct Span {
    Layer layer;
    int tid;
    int parent;  // index of the enclosing span on the same fiber, or -1
    std::uint64_t op;
    std::uint64_t start;  // TSC ticks since rep start
    std::uint64_t end;
  };
  struct Open {
    Layer layer;
    int span;  // index into spans_, or -1 when spans are not kept
  };

  // Attributes the interval since the previous boundary and advances it.
  void boundary(tsx::Ctx& ctx);
  std::uint64_t now() const { return __rdtsc() - start_tsc_; }
  double ms(std::uint64_t ticks) const { return ticks * ns_per_tick_ / 1e6; }

  const bool keep_spans_;
  Clock::time_point rep_start_;
  std::uint64_t start_tsc_ = 0;
  double ns_per_tick_ = 0;
  bool started_ = false;
  std::uint64_t last_ = 0;
  std::uint64_t last_switches_ = 0;
  std::uint64_t self_[kLayerCount] = {};
  std::uint64_t switched_ = 0;
  std::uint64_t collect_ = 0;
  std::vector<std::vector<Open>> stacks_;  // per simulated thread
  std::vector<std::uint64_t> op_seq_;      // per simulated thread
  std::vector<Span> spans_;
};

// Timing state every rep keeps, traced or not.
struct RepHooks {
  Tracer* tracer = nullptr;
  Clock::time_point start;
  Clock::time_point first_op;
  Clock::time_point end;
  bool started = false;
  std::uint64_t switches = 0;  // switch_count() at the last op boundary

  void begin() {
    start = Clock::now();
    if (tracer != nullptr) tracer->start_rep();
  }
  // Called at the end of every op.
  void end_op(tsx::Ctx& ctx) {
    switches = ctx.thread().scheduler().switch_count();
  }
  // run_workload returned and the rep's results are collected.
  void finish() {
    end = Clock::now();
    if (tracer != nullptr) tracer->end_rep();
  }
};

// RAII span: closes on scope exit, including the unwind of a transactional
// abort out of the body.
class Span {
 public:
  Span(RepHooks& h, Layer layer, tsx::Ctx& ctx) : h_(h), ctx_(ctx) {
    if (!h.started) {
      h.first_op = Clock::now();
      h.started = true;
    }
    if (h.tracer != nullptr) h.tracer->open(layer, ctx);
  }
  ~Span() {
    if (h_.tracer != nullptr) h_.tracer->close(ctx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  RepHooks& h_;
  tsx::Ctx& ctx_;
};

}  // namespace elision::e2e

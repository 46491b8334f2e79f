#include "trace.hpp"

#include <cstdio>

#include "sim/scheduler.hpp"

namespace elision::e2e {

const char* layer_name(Layer l) {
  switch (l) {
    case kHarnessOp: return "harness.op";
    case kLocksRegion: return "locks.region";
    case kDsCall: return "ds.call";
    case kServiceRequest: return "service.request";
    case kServiceTraffic: return "service.traffic";
    case kLayerCount: break;
  }
  return "?";
}

void Tracer::boundary(tsx::Ctx& ctx) {
  const std::uint64_t t = now();
  const std::uint64_t switches = ctx.thread().scheduler().switch_count();
  const auto tid = static_cast<std::size_t>(ctx.id());
  if (stacks_.size() <= tid) {
    stacks_.resize(tid + 1);
    op_seq_.resize(tid + 1, 0);
  }
  if (started_) {
    if (switches == last_switches_) {
      // Between ops a fiber runs run_workload's loop: harness work.
      const auto& stack = stacks_[tid];
      self_[stack.empty() ? kHarnessOp : stack.back().layer] += t - last_;
    } else {
      switched_ += t - last_;
    }
  }
  started_ = true;
  last_ = t;
  last_switches_ = switches;
}

void Tracer::open(Layer layer, tsx::Ctx& ctx) {
  boundary(ctx);
  const auto tid = static_cast<std::size_t>(ctx.id());
  auto& stack = stacks_[tid];
  int index = -1;
  if (keep_spans_ && spans_.size() < kMaxKeptSpans) {
    if (layer == kHarnessOp) ++op_seq_[tid];
    index = static_cast<int>(spans_.size());
    spans_.push_back({layer, ctx.id(), stack.empty() ? -1 : stack.back().span,
                      op_seq_[tid], last_, last_});
  }
  stack.push_back({layer, index});
}

void Tracer::close(tsx::Ctx& ctx) {
  boundary(ctx);
  auto& stack = stacks_[static_cast<std::size_t>(ctx.id())];
  if (stack.back().span >= 0) {
    spans_[static_cast<std::size_t>(stack.back().span)].end = last_;
  }
  stack.pop_back();
}

void Tracer::end_rep() {
  const std::uint64_t t = now();
  collect_ = t - last_;
  ns_per_tick_ = ms_between(rep_start_, Clock::now()) * 1e6 /
                 static_cast<double>(t > 0 ? t : 1);
}

void Tracer::fill(RepResult& r) const {
  for (int l = 0; l < kLayerCount; ++l) r.self_ms[l] = ms(self_[l]);
  r.switched_ms = ms(switched_);
  r.collect_ms = ms(collect_);
}

bool Tracer::write_chrome(const char* path) const {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", layer_name(s.layer), s.tid,
                 ms(s.start) * 1e3, ms(s.end - s.start) * 1e3,
                 static_cast<unsigned long long>(s.op), s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace elision::e2e

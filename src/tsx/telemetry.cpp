#include "tsx/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <unordered_map>

namespace elision::tsx {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kTxBegin: return "tx-begin";
    case EventKind::kTxCommit: return "tx-commit";
    case EventKind::kTxAbort: return "tx-abort";
    case EventKind::kLockAcquire: return "lock-acquire";
    case EventKind::kLockRelease: return "lock-release";
    case EventKind::kAuxEnter: return "aux-enter";
    case EventKind::kAuxRejoin: return "aux-rejoin";
    case EventKind::kAuxExit: return "aux-exit";
    case EventKind::kKindCount: break;
  }
  return "?";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

EventRing::EventRing(std::size_t capacity)
    : mask_(round_up_pow2(capacity) - 1),
      storage_((mask_ + 1) * sizeof(TelemetryEvent)),
      buf_(reinterpret_cast<TelemetryEvent*>(storage_.data())) {}

EventRing& Telemetry::ring(int thread) {
  // A folded id would break the per-ring time order merged() relies on.
  ELISION_CHECK_MSG(thread >= 0, "telemetry event without a thread id");
  const auto id = static_cast<std::size_t>(thread);
  if (id >= rings_.size()) rings_.resize(id + 1);
  if (!rings_[id]) rings_[id] = std::make_unique<EventRing>(ring_capacity_);
  return *rings_[id];
}

std::uint64_t Telemetry::total_recorded() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) {
    if (r) n += r->recorded();
  }
  return n;
}

std::uint64_t Telemetry::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& r : rings_) {
    if (r) n += r->dropped();
  }
  return n;
}

std::vector<TelemetryEvent> Telemetry::merged() const {
  // One cursor per non-empty ring, in a min-heap on (next timestamp, thread).
  // Each ring is one thread's events in non-decreasing time, so taking the
  // least cursor's next event each step equals the stable sort documented
  // in the header.
  struct Cursor {
    std::uint64_t timestamp;
    std::size_t thread;
    std::size_t next;
  };
  const auto later = [](const Cursor& a, const Cursor& b) {
    return a.timestamp != b.timestamp ? a.timestamp > b.timestamp
                                      : a.thread > b.thread;
  };
  std::vector<Cursor> heap;
  std::size_t total = 0;
  for (std::size_t t = 0; t < rings_.size(); ++t) {
    if (!rings_[t] || rings_[t]->size() == 0) continue;
    heap.push_back({(*rings_[t])[0].timestamp, t, 0});
    total += rings_[t]->size();
  }
  std::make_heap(heap.begin(), heap.end(), later);
  std::vector<TelemetryEvent> all;
  all.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& c = heap.back();
    const EventRing& r = *rings_[c.thread];
    all.push_back(r[c.next]);
    if (++c.next == r.size()) {
      heap.pop_back();
    } else {
      c.timestamp = r[c.next].timestamp;
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  return all;
}

void Telemetry::dump_csv(std::FILE* out) const {
  std::fprintf(out,
               "timestamp,thread,kind,cause,line,other_thread\n");
  for (const auto& e : merged()) {
    std::fprintf(out, "%" PRIu64 ",%d,%s,%s,%" PRIxPTR ",%d\n", e.timestamp,
                 e.thread, to_string(e.kind), to_string(e.cause),
                 static_cast<std::uintptr_t>(e.line), e.other_thread);
  }
}

void Telemetry::dump_json(std::FILE* out) const {
  std::fprintf(out, "{\n  \"dropped\": %" PRIu64 ",\n  \"events\": [\n",
               total_dropped());
  const auto all = merged();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& e = all[i];
    std::fprintf(out,
                 "    {\"t\": %" PRIu64 ", \"thread\": %d, \"kind\": \"%s\","
                 " \"cause\": \"%s\", \"line\": \"%" PRIxPTR
                 "\", \"other\": %d}%s\n",
                 e.timestamp, e.thread, to_string(e.kind), to_string(e.cause),
                 static_cast<std::uintptr_t>(e.line), e.other_thread,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

// ---------------------------------------------------------------------------
// Avalanche detection
// ---------------------------------------------------------------------------

std::vector<AvalancheEpisode> detect_avalanches(
    const std::vector<TelemetryEvent>& merged, const AvalancheConfig& cfg) {
  std::vector<AvalancheEpisode> out;
  const std::size_t n = merged.size();
  // Same-line acquisitions consumed by an already-scanned convoy: line ->
  // one-past-the-last merged index that episode's window covered. Keeps the
  // foreign-line re-scan below from re-seeding a convoy that was already
  // reported.
  std::unordered_map<support::LineId, std::size_t> consumed_until;
  // Victim dedup scratch, indexed by thread id (grown on demand — no
  // 64-thread cap; ROADMAP item 5 targets larger machines).
  std::vector<std::uint8_t> is_victim;
  std::size_t i = 0;
  while (i < n) {
    if (merged[i].kind != EventKind::kLockAcquire) {
      ++i;
      continue;
    }
    if (merged[i].line != 0) {
      const auto it = consumed_until.find(merged[i].line);
      if (it != consumed_until.end() && i < it->second) {
        ++i;  // part of an episode already scanned and reported
        continue;
      }
    }
    // A non-speculative acquisition seeds a candidate episode.
    AvalancheEpisode ep;
    ep.trigger_thread = merged[i].thread;
    ep.start = merged[i].timestamp;
    ep.end = merged[i].timestamp;
    ep.line = merged[i].line;
    is_victim.assign(is_victim.size(), 0);
    // First kLockAcquire on a *different* lock line skipped inside the
    // window: a concurrent episode's seed. The scan resumes there instead
    // of at j, so a second lock's simultaneous avalanche is not swallowed.
    std::size_t foreign_seed = n;
    std::size_t j = i + 1;
    for (; j < n; ++j) {
      const TelemetryEvent& e = merged[j];
      if (e.timestamp > ep.end + cfg.window_cycles) break;
      switch (e.kind) {
        case EventKind::kTxAbort:
          // Any abort inside the window is part of the cascade. Aborts on a
          // known different lock line belong to another lock's episode.
          if (ep.line != 0 && e.line != 0 && e.line != ep.line) continue;
          ++ep.aborts;
          if (e.thread != ep.trigger_thread && e.thread >= 0) {
            const auto id = static_cast<std::size_t>(e.thread);
            if (id >= is_victim.size()) is_victim.resize(id + 1, 0);
            is_victim[id] = 1;
          }
          ep.end = e.timestamp;
          break;
        case EventKind::kLockAcquire:
        case EventKind::kLockRelease:
          // Chained non-speculative activity on the same lock extends the
          // serialized convoy.
          if (ep.line != 0 && e.line != 0 && e.line != ep.line) {
            if (e.kind == EventKind::kLockAcquire && foreign_seed == n) {
              foreign_seed = j;
            }
            continue;
          }
          if (e.kind == EventKind::kLockRelease) ++ep.serialized_ops;
          ep.end = e.timestamp;
          break;
        default:
          // Speculative traffic (begins/commits, aux events) neither extends
          // nor terminates the episode.
          break;
      }
    }
    for (std::size_t t = 0; t < is_victim.size(); ++t) {
      if (is_victim[t] != 0) ep.victims.push_back(static_cast<int>(t));
    }
    if (ep.victim_count() >= cfg.min_victims) out.push_back(ep);
    if (ep.line != 0) consumed_until[ep.line] = j;
    i = foreign_seed < j ? foreign_seed : j;
  }
  return out;
}

std::vector<std::uint64_t> rejoin_latencies(
    const std::vector<TelemetryEvent>& merged) {
  std::vector<std::uint64_t> out;
  // Per-thread timestamp of the open kAuxEnter, if any.
  std::vector<std::uint64_t> open;
  std::vector<bool> is_open;
  for (const auto& e : merged) {
    if (e.thread < 0) continue;
    const auto id = static_cast<std::size_t>(e.thread);
    if (id >= open.size()) {
      open.resize(id + 1, 0);
      is_open.resize(id + 1, false);
    }
    if (e.kind == EventKind::kAuxEnter) {
      open[id] = e.timestamp;
      is_open[id] = true;
    } else if (e.kind == EventKind::kAuxExit && is_open[id]) {
      out.push_back(e.timestamp - open[id]);
      is_open[id] = false;
    }
  }
  return out;
}

}  // namespace elision::tsx

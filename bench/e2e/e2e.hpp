// End-to-end benchmark of the simulator: the workload table, the per-rep
// result that crosses from a forked rep process back to the parent, and the
// in-process rep runner. See README.md in this directory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "harness/bt_workload.hpp"
#include "harness/rb_workload.hpp"
#include "service/kv_workload.hpp"

namespace elision::e2e {

enum class Kind { kRb, kBt, kKv };

// One benchmark workload: a suite-shaped point run through the public layer
// APIs. Only the point matching `kind` is used; its seed is replaced per rep.
struct Workload {
  const char* name;
  Kind kind;
  harness::RbPoint rb;
  harness::BtPoint bt;
  service::KvPoint kv;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

// The layers the traced run attributes self time to, from the outside: each
// is a span the rep's own code opens around its calls into that layer.
enum Layer : int {
  kHarnessOp,       // the op closure and run_workload's per-op bookkeeping
  kLocksRegion,     // CriticalSection::run* outside the body
  kDsCall,          // the tree call, simulated accesses included
  kServiceRequest,  // a ShardedKv call
  kServiceTraffic,  // OpenLoopClock and Zipf draws
  kLayerCount,
};
const char* layer_name(Layer l);

// Everything one rep reports. Trivially copyable: a forked rep writes it to
// a pipe as raw bytes.
struct RepResult {
  bool valid = false;    // unsafe_validate() passed
  char why[160] = {};    // the validation failure, if any
  std::uint64_t digest = 0;        // simulated outcome incl. final state
  std::uint64_t stats_digest = 0;  // RunStats part only (entry-point check)

  // Host time, ms.
  double setup_ms = 0;  // rep start -> first simulated op
  double run_ms = 0;    // first simulated op -> run_workload returned
  double rep_ms = 0;    // rep start -> results collected

  // Simulated outcome.
  double ghz = 0;
  std::uint64_t ops = 0, spec_ops = 0, attempts = 0, elapsed_cycles = 0;
  std::uint64_t switches = 0;  // switch_count() at the last op boundary
  std::uint64_t begins = 0, commits = 0;
  std::uint64_t aborts_conflict = 0, aborts_pause = 0, aborts_explicit = 0;
  std::uint64_t owned_hits = 0, probe_skips = 0;  // heap-layout dependent
  std::uint64_t telemetry_events = 0, telemetry_dropped = 0, episodes = 0;
  std::uint64_t p99_cycles = 0;  // per-op virtual latency, all op kinds
  std::uint64_t p99_kind_cycles[service::kKvOpKinds] = {};  // kv only

  // Untraced reps only: calibrate_ms() run right after the rep.
  double calibration_ms = 0;

  // Traced reps only: self time per layer and the outside-in split, ms.
  double self_ms[kLayerCount] = {};
  double switched_ms = 0;  // intervals across which switch_count() moved
  double collect_ms = 0;   // last op boundary -> run_workload returned
  double switch_probe_ns = 0;
};
static_assert(std::is_trivially_copyable_v<RepResult>);

class Tracer;

// Runs one rep of `w` at `seed` in this process. With a tracer, records
// spans and attributes self time; the simulated outcome is the same.
RepResult run_rep(const Workload& w, std::uint64_t seed, Tracer* tracer);

// Digest of the same point run through the program's own entry point
// (run_rb_point_once / run_bt_point_once / run_kv_point_once); equals
// run_rep's stats_digest when the benchmark builds the same simulation.
std::uint64_t entry_point_digest(const Workload& w, std::uint64_t seed);

// Host time of a fixed probe that imitates the simulator's hot loop but
// shares no code with the program (calibrate.cpp). Host-time metrics are
// scaled by kReferenceCalibrationMs / calibrate_ms().
double calibrate_ms();
inline constexpr double kReferenceCalibrationMs = 7.0;

// Host ns per context switch of a tick-only simulation on the workload's
// thread count, machine shape and yield slack.
double switch_probe_ns(const Workload& w, std::uint64_t seed);

}  // namespace elision::e2e

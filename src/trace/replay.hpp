// ReplayDriver — re-drives the machine simulator from a recorded trace.
//
// A replay builds the same Runtime substrate a live run would (page tables,
// hugetlbfs pool, machine topology, code-region mapping), then feeds each
// recorded event of each thread's stream through that thread's simulator —
// the touch/touch_run/touch_strided/add_compute call a live kernel makes —
// applying the recorded fork-join boundaries in machine order. Because the
// simulator state evolves only from the touch stream and the boundary
// snapshots (see sim/trace_sink.hpp), every profile counter and the
// simulated run time come out bit-identical to a live run on the same
// platform/cost/seed/code-page configuration.
//
// The platform, cost model, seed and code-page kind are *replay* knobs: one
// trace recorded at (kernel, class, threads, page kind) replays on any of
// them — that is the whole point of the trace subsystem.
#pragma once

#include <cstdint>

#include "paging/policy.hpp"
#include "prof/profile.hpp"
#include "sim/cost_model.hpp"
#include "sim/processor_spec.hpp"
#include "trace/trace.hpp"

namespace lpomp::trace {

/// The simulator-side configuration a trace is replayed against.
struct ReplayConfig {
  sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
  sim::CostModel cost;
  std::uint64_t seed = 0x5eedULL;
  PageKind code_page_kind = PageKind::small4k;

  /// Paging-policy overlay for the replay's simulator. Streams are
  /// recorded against the layout, not the policy, so one recorded trace
  /// replays under any policy.
  paging::PolicySpec paging{};

  /// Optional sink observing the replayed stream. The replay passes each
  /// recorded event through the ThreadSim entry point a live run calls, so
  /// the sink sees *live framing* by construction — one run event per run
  /// rather than n singles — and attaching a TraceRecorder here re-records
  /// a trace event-for-event identical to the one being replayed (the
  /// framing invariant tests/test_trace_replay.cpp pins).
  sim::TraceSink* resink = nullptr;
};

/// What a replay produces: the simulator outcome for the replay config,
/// plus the numeric outcome (verified/checksum) copied from the recording
/// run — a replay executes no kernel numerics.
struct ReplayOutcome {
  double simulated_seconds = 0.0;
  prof::ProfileReport profile;
  bool verified = false;
  double checksum = 0.0;
};

class ReplayDriver {
 public:
  explicit ReplayDriver(ReplayConfig config) : config_(std::move(config)) {}

  /// Replays `trace` through a freshly built machine stack. Throws
  /// TraceError if the trace is malformed (no threads, a stream count
  /// other than the thread count, a stream that ends before its last
  /// boundary or runs past it), does not fit the platform (more threads
  /// than hardware contexts), or is rejected by the simulator mid-replay
  /// (an event at an address or page kind the recorded configuration does
  /// not map) — never a bare logic_error.
  ReplayOutcome run(const Trace& trace) const;

  const ReplayConfig& config() const { return config_; }

 private:
  ReplayConfig config_;
};

}  // namespace lpomp::trace

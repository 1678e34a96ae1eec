// ReplayDriver — re-drives the machine simulator from a recorded trace.
//
// A replay builds the same Runtime substrate a live run would (page tables,
// hugetlbfs pool, machine topology, code-region mapping), then feeds the
// decoded per-thread event streams through the per-thread simulators,
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

  /// Paging-policy overlay for this lane's simulator. Streams are recorded
  /// against the layout, not the policy, so one recorded trace replays
  /// under any policy — the policy rides here, per lane.
  paging::PolicySpec paging{};

  /// Optional sink observing the replayed stream. The replay reports events
  /// with *live framing* — a decoded pattern block surfaces as the same
  /// touch/run/strided/compute sequence a live run would have reported, one
  /// run event per run rather than n singles — so attaching a TraceRecorder
  /// here re-records a trace byte-identical to the one being replayed (the
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
  /// TraceError if the trace is malformed or does not fit the platform
  /// (more threads than hardware contexts).
  ReplayOutcome run(const Trace& trace) const;

  const ReplayConfig& config() const { return config_; }

 private:
  ReplayConfig config_;
};

}  // namespace lpomp::trace

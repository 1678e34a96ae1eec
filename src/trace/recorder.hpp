// TraceSink implementation that captures a run into a Trace.
//
// Attach via RuntimeConfig::trace_sink (or Machine::set_trace_sink), run the
// kernel, then call finish() once to obtain the Trace. One event vector per
// simulated thread, appended to exactly as the sink is called; per-thread
// events arrive from the owning host thread and boundaries arrive while all
// threads are quiescent (the TraceSink contract), so the recorder needs no
// locks.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/trace_sink.hpp"
#include "trace/trace.hpp"

namespace lpomp::trace {

class TraceRecorder final : public sim::TraceSink {
 public:
  explicit TraceRecorder(unsigned nthreads)
      : streams_(nthreads), touches_(nthreads, 0) {}

  void on_touch(unsigned tid, vaddr_t addr, PageKind kind,
                Access access) override {
    streams_[tid].push_back(Event::touch_ev(addr, kind, access));
    ++touches_[tid];
  }

  void on_touch_run(unsigned tid, vaddr_t addr, std::size_t n, PageKind kind,
                    Access access) override {
    streams_[tid].push_back(Event::run_ev(addr, n, kind, access));
    touches_[tid] += n;
  }

  void on_touch_strided(unsigned tid, vaddr_t addr, std::size_t n,
                        std::int64_t stride_bytes, PageKind kind,
                        Access access) override {
    streams_[tid].push_back(
        Event::strided_ev(addr, n, stride_bytes, kind, access));
    touches_[tid] += n;
  }

  void on_compute(unsigned tid, cycles_t cycles) override {
    streams_[tid].push_back(Event::compute_ev(cycles));
  }

  void on_boundary(sim::BoundaryKind kind) override {
    for (std::vector<Event>& stream : streams_) {
      stream.push_back(Event::segment_ev());
    }
    boundaries_.push_back(kind);
  }

  /// Total instrumented element accesses recorded so far.
  std::uint64_t accesses() const {
    std::uint64_t total = 0;
    for (std::uint64_t t : touches_) total += t;
    return total;
  }

  /// Hands the recorded streams over as a Trace. `meta` describes the
  /// recording run; its `accesses` field is filled in here. Call at most
  /// once, after the run has finished (all threads joined, end_run
  /// recorded).
  Trace finish(TraceMeta meta) {
    Trace trace;
    meta.accesses = accesses();
    trace.meta = std::move(meta);
    trace.streams = std::move(streams_);
    trace.boundaries = std::move(boundaries_);
    return trace;
  }

 private:
  std::vector<std::vector<Event>> streams_;
  std::vector<std::uint64_t> touches_;
  std::vector<sim::BoundaryKind> boundaries_;
};

}  // namespace lpomp::trace

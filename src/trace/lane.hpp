// Multi-lane replay: one recorded access stream driving N independent
// simulator states at once.
//
// A recorded stream is a pure function of (kernel, class, threads, page
// kind); the platform, cost model, seed and code-page kind are replay-side
// knobs. A sweep therefore contains groups of grid points that share one
// stream and differ only in those knobs — and the expensive part of serving
// such a group from a trace is decoding the stream, not applying it. The
// types here split those costs:
//
//   * ReplaySubstrate — the memory-system state every lane reads but none
//     mutates: PhysMem, AddressSpace and the startup-preallocated shared
//     pool, built with exactly the construction sequence core::Runtime
//     uses so every recorded virtual address translates as it did live.
//     The text mapping is *not* materialised: the instruction-stream model
//     only probes the ITLB by page number (never the page table), so only
//     the base address the live mapping would have received matters, and
//     AddressSpace::peek_region_base supplies it without spending frames.
//   * LaneSet — N machine states (TLB hierarchy, caches, prefetcher,
//     counters, fork-join clock — one full sim::Machine per grid point)
//     over the shared substrate. Per simulated thread, the lanes'
//     ThreadSims form one contiguous pointer array, so applying an event
//     for thread t sweeps a flat lane vector.
//   * MultiReplayDriver — decodes each pattern block of a stored trace
//     once and applies it to every lane before advancing (the per-lane
//     batched replay fast path does the rest). One decode pass serves the
//     whole group; outcomes are bit-identical to N single-lane replays.
//
// Identity argument: every lane receives the exact event sequence of the
// source run, per thread in that thread's program order, with boundaries
// applied at the same points in the global order — the same information a
// dedicated single-lane replay (or the live run itself) consumes. Since a
// ThreadSim's evolution is a deterministic function of its config, its
// seed, and that sequence, each lane's counters equal its standalone
// counterpart's bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "npb/npb.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"

namespace lpomp::trace {

/// The shared, read-only memory substrate of a lane group: physical memory,
/// address space and the preallocated shared pool of the recording
/// configuration, reproducing the live run's page-table layout exactly.
///
/// A substrate is a pure function of (kernel, class, page kind); lanes
/// read it but never mutate it.
class ReplaySubstrate {
 public:
  ReplaySubstrate(npb::Kernel kernel, npb::Klass klass, PageKind page_kind);
  ~ReplaySubstrate();

  ReplaySubstrate(const ReplaySubstrate&) = delete;
  ReplaySubstrate& operator=(const ReplaySubstrate&) = delete;

  const mem::AddressSpace& space() const { return *space_; }
  npb::Kernel kernel() const { return kernel_; }

  /// Base address the live run's text mapping would occupy for this code
  /// page kind (the mapping itself is never materialised — see above).
  vaddr_t code_base(PageKind code_kind) const {
    return space_->peek_region_base(code_kind);
  }

 private:
  npb::Kernel kernel_;
  std::unique_ptr<mem::PhysMem> phys_;
  std::unique_ptr<mem::AddressSpace> space_;
  std::unique_ptr<mem::HugeTlbFs> hugetlbfs_;
  std::unique_ptr<core::SharedAllocator> alloc_;
};

/// N independent simulator states over one ReplaySubstrate, addressed as
/// lanes. Events are applied to all lanes; outcomes are read per lane.
class LaneSet {
 public:
  /// `substrate` must outlive the LaneSet. `nthreads` is the recorded
  /// thread count every lane simulates.
  LaneSet(const ReplaySubstrate& substrate, unsigned nthreads)
      : substrate_(&substrate), nthreads_(nthreads) {}

  /// Adds one lane configured by `cfg` (platform, cost, seed, code pages —
  /// the replay knobs). Returns its lane index. Throws TraceError when the
  /// thread count does not fit the lane's hardware contexts; the LaneSet is
  /// unchanged in that case, so the caller can demote just that grid point.
  std::size_t add_lane(const ReplayConfig& cfg);

  std::size_t lanes() const { return machines_.size(); }
  unsigned nthreads() const { return nthreads_; }

  sim::Machine& machine(std::size_t lane) { return *machines_[lane]; }

  /// Applies one decoded pattern block of thread `tid` to every lane (the
  /// hot path: one contiguous ThreadSim pointer row per thread).
  void apply_pattern(unsigned tid, const sim::ReplaySlot* slots,
                     std::size_t count, std::uint64_t periods) {
    for (sim::ThreadSim* t : by_tid_[tid]) {
      t->replay_pattern(slots, count, periods);
    }
  }
  void apply_boundary(sim::BoundaryKind kind);

  /// Simulator outcome of one lane; `verified`/`checksum` are copied from
  /// the source run (lanes execute no kernel numerics).
  ReplayOutcome outcome(std::size_t lane, const std::string& label,
                        bool verified, double checksum) const;

 private:
  const ReplaySubstrate* substrate_;
  unsigned nthreads_;
  std::vector<std::unique_ptr<sim::Machine>> machines_;
  /// SoA hot-state index: by_tid_[tid][lane] = that lane's ThreadSim for
  /// simulated thread tid.
  std::vector<std::vector<sim::ThreadSim*>> by_tid_;
};

/// Replays one stored trace into N lanes with a single decode pass.
/// Outcomes are returned in lane (constructor) order and are bit-identical
/// to running a single-lane ReplayDriver per config.
class MultiReplayDriver {
 public:
  explicit MultiReplayDriver(std::vector<ReplayConfig> lanes)
      : lanes_(std::move(lanes)) {}

  /// Throws TraceError when the trace is malformed, a lane does not fit its
  /// platform, or the simulator rejects the stream mid-replay (a corrupt
  /// but well-framed trace) — never a bare logic_error, so callers can fall
  /// back to live execution.
  std::vector<ReplayOutcome> run(const Trace& trace) const;

  const std::vector<ReplayConfig>& lane_configs() const { return lanes_; }

 private:
  std::vector<ReplayConfig> lanes_;
};

}  // namespace lpomp::trace

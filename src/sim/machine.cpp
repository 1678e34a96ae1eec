#include "sim/machine.hpp"

#include <algorithm>

namespace lpomp::sim {

namespace {

/// Placement for thread `tid`: spread across sockets first, then cores,
/// then fill second SMT contexts.
Placement place(const ProcessorSpec& spec, unsigned tid) {
  Placement p;
  const unsigned total_cores = spec.total_cores();
  const unsigned core_slot = tid % total_cores;
  p.socket = core_slot % spec.sockets;
  p.core = core_slot / spec.sockets;
  p.smt = tid / total_cores;
  return p;
}

tlb::Tlb::Config slice_tlb(const tlb::Tlb::Config& cfg, unsigned sharers) {
  return tlb::Tlb::Config{cfg.name, cfg.small4k.shared_slice(sharers),
                          cfg.large2m.shared_slice(sharers),
                          cfg.huge1g.shared_slice(sharers)};
}

}  // namespace

Machine::Machine(ProcessorSpec spec, CostModel cost,
                 const mem::AddressSpace& space, unsigned nthreads,
                 std::uint64_t seed, const paging::PolicySpec& paging)
    : spec_(std::move(spec)), cost_(cost) {
  LPOMP_CHECK_MSG(nthreads >= 1, "machine needs at least one thread");
  LPOMP_CHECK_MSG(nthreads <= spec_.total_contexts(),
                  "more threads than hardware contexts on " + spec_.name);

  placements_.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) {
    placements_.push_back(place(spec_, t));
  }

  threads_.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) {
    // Sharers of the core-private structures (TLBs, L1): SMT co-residents.
    unsigned core_sharers = 0;
    // Sharers of the L2: co-residents of the core (Opteron, private) or of
    // the whole chip (Xeon, shared).
    unsigned l2_sharers = 0;
    for (unsigned u = 0; u < nthreads; ++u) {
      if (placements_[u].same_core(placements_[t])) ++core_sharers;
      if (spec_.l2_shared_per_chip
              ? placements_[u].same_socket(placements_[t])
              : placements_[u].same_core(placements_[t])) {
        ++l2_sharers;
      }
    }

    threads_.emplace_back(
        cost_, space, slice_tlb(spec_.itlb, core_sharers),
        slice_tlb(spec_.l1_dtlb, core_sharers),
        spec_.l2_dtlb ? std::optional<tlb::Tlb::Config>(
                            slice_tlb(*spec_.l2_dtlb, core_sharers))
                      : std::nullopt,
        spec_.l1d.shared_slice(core_sharers),
        spec_.l2.shared_slice(l2_sharers), seed + 0x9e37 * (t + 1));
    threads_.back().set_active_threads(nthreads);
    if (!paging.is_native()) threads_.back().set_paging(paging);
    if (spec_.pwc.present()) threads_.back().set_pwc(spec_.pwc);
  }
  region_start_.resize(nthreads);
}

ThreadSim& Machine::thread(unsigned tid) {
  LPOMP_CHECK(tid < threads_.size());
  return threads_[tid];
}

Placement Machine::placement(unsigned tid) const {
  LPOMP_CHECK(tid < placements_.size());
  return placements_[tid];
}

void Machine::begin_parallel() {
  LPOMP_CHECK_MSG(!in_parallel_, "nested parallel regions are not simulated");
  if (sink_ != nullptr) sink_->on_boundary(BoundaryKind::begin_parallel);
  // Serial phase since the last boundary ran on the master thread.
  const ThreadCounters serial =
      threads_[0].counters().minus(serial_mark_);
  total_cycles_ += serial.total_cycles();

  for (unsigned t = 0; t < threads_.size(); ++t) {
    region_start_[t] = threads_[t].counters();
  }
  in_parallel_ = true;
}

void Machine::end_parallel() {
  LPOMP_CHECK_MSG(in_parallel_, "end_parallel without begin_parallel");
  if (sink_ != nullptr) sink_->on_boundary(BoundaryKind::end_parallel);
  in_parallel_ = false;

  // Group region deltas by physical core and combine with the SMT model.
  cycles_t slowest_core = 0;
  std::vector<bool> seen(threads_.size(), false);
  for (unsigned t = 0; t < threads_.size(); ++t) {
    if (seen[t]) continue;
    cycles_t exec_sum = 0;
    cycles_t longest = 0;
    count_t long_stalls = 0;
    unsigned active = 0;
    for (unsigned u = t; u < threads_.size(); ++u) {
      if (!placements_[u].same_core(placements_[t])) continue;
      seen[u] = true;
      const ThreadCounters d = threads_[u].counters().minus(region_start_[u]);
      exec_sum += d.exec_cycles;
      longest = std::max(longest, d.total_cycles());
      long_stalls += d.long_stalls;
      if (d.total_cycles() > 0) ++active;
    }
    if (active > 1) {
      // Two contexts share the core's front end: their combined issue
      // bandwidth is less than 2×.
      exec_sum = static_cast<cycles_t>(static_cast<double>(exec_sum) *
                                       cost_.smt_issue_factor);
    }
    cycles_t core_time = std::max(exec_sum, longest);
    if (spec_.smt_flush_on_switch && active > 1) {
      // More than one resident thread did work: every long-latency stall
      // triggers a context switch that flushes the pipeline.
      core_time += cost_.smt_flush * long_stalls;
    }
    slowest_core = std::max(slowest_core, core_time);
  }

  const cycles_t barrier =
      cost_.barrier_base +
      cost_.barrier_per_thread * static_cast<cycles_t>(threads_.size());
  total_cycles_ += slowest_core + barrier;

  serial_mark_ = threads_[0].counters();
}

void Machine::end_run() {
  LPOMP_CHECK_MSG(!in_parallel_, "end_run inside a parallel region");
  if (sink_ != nullptr) sink_->on_boundary(BoundaryKind::end_run);
  const ThreadCounters serial = threads_[0].counters().minus(serial_mark_);
  total_cycles_ += serial.total_cycles();
  serial_mark_ = threads_[0].counters();
}

ThreadCounters Machine::totals() const {
  ThreadCounters sum;
  for (const ThreadSim& t : threads_) sum += t.counters();
  return sum;
}

void Machine::attach_code_all(vaddr_t base, std::size_t size, PageKind kind,
                              count_t jump_period, double cold_fraction) {
  for (ThreadSim& t : threads_) {
    t.attach_code(base, size, kind, jump_period, cold_fraction);
  }
}

void Machine::set_trace_sink(TraceSink* sink) {
  sink_ = sink;
  for (unsigned t = 0; t < threads_.size(); ++t) {
    threads_[t].set_trace_sink(sink, t);
  }
}

}  // namespace lpomp::sim

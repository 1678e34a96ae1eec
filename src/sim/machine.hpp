// The whole-machine simulator: topology and thread placement, construction
// of each simulated thread's (sharing-sliced) view of the TLBs and caches,
// and fork-join time accounting with the SMT interleaving model.
//
// Placement follows the paper's §4 methodology: one thread per core up to
// the core count (spread across sockets first), then a second SMT context
// per core — "Single thread per core is used upto 4 threads. Two threads
// per core are used at eight threads."
//
// Time model (DESIGN.md §6): threads only count events; the machine costs
// them here, once per region, as exec(d) = ThreadCounters::exec_cycles and
// total(d) = exec(d) + ThreadCounters::stall_cycles at the DRAM latency
// contended by all of the machine's threads. Then
//   run time = Σ serial-phase cycles (master thread)
//            + Σ over parallel regions [ max over cores(core time) + barrier ]
// where, for a core running SMT threads with region deltas d_t,
//   core time = max( Σ_t exec(d_t), max_t total(d_t) )        [ideal SMT]
// and the Xeon's flush-on-switch implementation additionally pays
//   smt_flush × Σ_t long_stalls(d_t)                            [paper §4.4]
#pragma once

#include <vector>

#include "mem/address_space.hpp"
#include "sim/cost_model.hpp"
#include "sim/processor_spec.hpp"
#include "sim/thread_sim.hpp"

namespace lpomp::sim {

struct Placement {
  unsigned socket = 0;
  unsigned core = 0;  ///< core within the socket
  unsigned smt = 0;   ///< hardware thread within the core

  bool same_core(const Placement& o) const {
    return socket == o.socket && core == o.core;
  }
  bool same_socket(const Placement& o) const { return socket == o.socket; }
};

class Machine {
 public:
  /// Builds a machine running `nthreads` simulated application threads.
  /// `space` holds the application's simulated memory; it must outlive the
  /// machine. Throws std::logic_error if nthreads exceeds the platform's
  /// hardware contexts. `paging` installs a translation overlay on every
  /// thread (default: the identity native policy); the spec's PWC config,
  /// if present, is installed likewise.
  Machine(ProcessorSpec spec, CostModel cost, const mem::AddressSpace& space,
          unsigned nthreads, std::uint64_t seed = 0x5eedULL,
          const paging::PolicySpec& paging = {});

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  unsigned nthreads() const { return static_cast<unsigned>(threads_.size()); }
  ThreadSim& thread(unsigned tid);
  Placement placement(unsigned tid) const;

  const ProcessorSpec& spec() const { return spec_; }
  const CostModel& cost_model() const { return cost_; }

  // --- fork-join time accounting -------------------------------------------
  /// Marks the start of a parallel region: serial cycles accumulated by the
  /// master thread since the previous boundary are charged to total time,
  /// and per-thread snapshots are taken.
  void begin_parallel();

  /// Marks the end of a parallel region: charges max-over-cores of the
  /// per-core SMT-combined deltas, plus the barrier cost.
  void end_parallel();

  /// Charges any trailing serial work; call once after the app finishes.
  void end_run();

  cycles_t total_cycles() const { return total_cycles_; }
  double seconds() const { return cost_.seconds(total_cycles_); }

  /// Whole-run event totals across all threads.
  ThreadCounters totals() const;

  /// Attach the instruction-stream model to every thread (one code region
  /// shared by the team, as with a real binary).
  void attach_code_all(vaddr_t base, std::size_t size, PageKind kind,
                       count_t jump_period, double cold_fraction);

  /// Attach (or detach, with nullptr) an access-trace sink: every thread
  /// reports its events under its tid, and the fork-join boundaries are
  /// reported in machine order. See sim/trace_sink.hpp for the contract.
  void set_trace_sink(TraceSink* sink);

 private:
  /// Cycles of a thread's counts (or a delta of them) under this machine's
  /// costs.
  cycles_t cycles(const ThreadCounters& c) const {
    return c.total_cycles(cost_, mem_stall_);
  }

  ProcessorSpec spec_;
  CostModel cost_;
  cycles_t mem_stall_ = 0;  ///< DRAM latency contended by nthreads sharers
  std::vector<ThreadSim> threads_;
  std::vector<Placement> placements_;
  std::vector<ThreadCounters> region_start_;  // snapshots at begin_parallel
  ThreadCounters serial_mark_;                // master snapshot at last boundary
  bool in_parallel_ = false;
  cycles_t total_cycles_ = 0;
  TraceSink* sink_ = nullptr;
};

}  // namespace lpomp::sim

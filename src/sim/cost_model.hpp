// Cycle-cost parameters of the machine simulator.
//
// Defaults are calibrated to 2007-era 2.0 GHz parts (the paper assumes
// "modern processors running at 2.0 GHz" and a ~200-cycle TLB miss in its
// §4.3 estimate). The absolute values shift absolute run times; the
// page-size and SMT *effects* under study come from event counts produced
// by the structural models (TLBs, caches, page tables).
//
// No simulated thread reads these costs: ThreadSim only counts events, and
// sim::Machine weighs the counts with them once per region
// (ThreadCounters::exec_cycles/stall_cycles in sim/counters.hpp), so no
// count depends on the cost model.
#pragma once

#include "support/types.hpp"

namespace lpomp::sim {

struct CostModel {
  double clock_ghz = 2.0;

  /// Execution (non-stall) cycles per instrumented memory access:
  /// the memory instruction itself plus its surrounding address arithmetic.
  cycles_t exec_per_access = 1;

  // --- data-cache stalls ---------------------------------------------------
  cycles_t l1_hit_stall = 0;    ///< L1 hits are pipelined away
  cycles_t l2_hit_stall = 14;   ///< L1 miss, L2 hit
  cycles_t mem_stall = 200;     ///< L2 miss to DRAM (before contention)
  /// L2 miss covered by the hardware stream prefetcher (sequential-line
  /// stream within one page — prefetchers of this era do not cross page
  /// boundaries, one of the structural benefits of 2 MB pages).
  cycles_t prefetched_stall = 25;

  // --- TLB stalls ------------------------------------------------------------
  cycles_t dtlb_l2_hit_stall = 22;  ///< L1 DTLB miss satisfied by L2 DTLB
  /// Walker overhead per page-table level touched (4 levels for a 4 KB
  /// leaf, 3 for a 2 MB leaf), *in addition to* the data-cache access the
  /// walker performs for that level's entry — a cold PTE costs real memory
  /// latency, a cached one only this fill overhead.
  cycles_t walk_level_stall = 6;
  cycles_t itlb_miss_stall = 200;  ///< paper §4.3 assumes ~200 cycles

  // --- multi-core interaction ------------------------------------------------
  /// Memory latency inflation per additional thread actively sharing the
  /// memory system: effective = mem_stall * (1 + alpha * (threads - 1)).
  double mem_contention_alpha = 0.12;

  /// Pipeline-flush penalty per SMT context switch (Xeon HT model). A switch
  /// is triggered by a long-latency stall (L2 miss or page walk).
  cycles_t smt_flush = 100;

  /// Issue-bandwidth inflation when two SMT contexts are active on a core:
  /// the shared front end (trace cache, decoder, schedulers on the paper's
  /// NetBurst parts) delivers less than the sum of two dedicated cores, so
  /// combined execution cycles are scaled by this factor.
  double smt_issue_factor = 1.45;

  // --- runtime primitives ------------------------------------------------------
  /// Fork-join barrier through the intra-node message channel (§3.3):
  /// gather + release, linear in the team size.
  cycles_t barrier_base = 2000;
  cycles_t barrier_per_thread = 800;

  double seconds(cycles_t cycles) const {
    return static_cast<double>(cycles) / (clock_ghz * 1e9);
  }

  /// Memory stall with `threads` active sharers of the memory system; a
  /// Machine of n threads costs every DRAM read of its run at this with n.
  cycles_t contended_mem_stall(unsigned threads) const {
    const double factor =
        1.0 + mem_contention_alpha * static_cast<double>(threads - 1);
    return static_cast<cycles_t>(static_cast<double>(mem_stall) * factor);
  }
};

}  // namespace lpomp::sim

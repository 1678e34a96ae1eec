// Per-thread event counts, and the one place they become cycles.
//
// A ThreadSim only counts: every access adds to the counts below and no
// cycle constant enters its per-access path. A run's execution and stall
// cycles are weighted sums of these counts (the paper's §4.3 estimate
// costs ITLB misses the same way), derived by exec_cycles() and
// stall_cycles() from a CostModel and the run's contended DRAM latency.
// sim::Machine is their only caller in the library.
#pragma once

#include "sim/cost_model.hpp"
#include "support/types.hpp"

namespace lpomp::sim {

/// Cumulative event counts for one simulated thread.
struct ThreadCounters {
  cycles_t compute_cycles = 0;  ///< add_compute charges (non-memory work)

  count_t accesses = 0;
  count_t stores = 0;
  count_t l1d_misses = 0;
  count_t l2d_misses = 0;            ///< misses to memory
  count_t dtlb_l1_misses = 0;
  count_t dtlb_l2_hits = 0;
  count_t dtlb_walks[kPageKindCount] = {0, 0, 0};  ///< full DTLB misses, by PageKind
  count_t walk_levels = 0;           ///< page-table levels traversed
  count_t pwc_hits = 0;              ///< walk levels skipped via the PWC
  count_t pte_l2_hits = 0;           ///< walk PTE reads that missed L1, hit L2
  count_t pte_mem_misses = 0;        ///< walk PTE reads that went to memory
  count_t itlb_lookups = 0;
  count_t itlb_misses = 0;
  count_t prefetch_covered = 0;      ///< L2 misses hidden by the stream prefetcher
  count_t long_stalls = 0;           ///< uncovered L2-miss or page-walk events

  /// Issue/compute cycles (overlappable by SMT).
  cycles_t exec_cycles(const CostModel& cm) const {
    return accesses * cm.exec_per_access + compute_cycles;
  }

  /// Memory-system stall cycles: each stall cause's count times its cost,
  /// with `mem` the (contended) DRAM latency of an uncovered L2 miss or a
  /// PTE read that misses both caches. Data-line L1 hits pay l1_hit_stall;
  /// PTE-line L1 hits pay nothing beyond walk_level_stall.
  cycles_t stall_cycles(const CostModel& cm, cycles_t mem) const {
    return (accesses - l1d_misses) * cm.l1_hit_stall +
           (l1d_misses - l2d_misses + pte_l2_hits) * cm.l2_hit_stall +
           prefetch_covered * cm.prefetched_stall +
           (l2d_misses - prefetch_covered + pte_mem_misses) * mem +
           dtlb_l2_hits * cm.dtlb_l2_hit_stall +
           walk_levels * cm.walk_level_stall +
           itlb_misses * cm.itlb_miss_stall;
  }

  cycles_t total_cycles(const CostModel& cm, cycles_t mem) const {
    return exec_cycles(cm) + stall_cycles(cm, mem);
  }

  count_t dtlb_walk_total() const {
    return dtlb_walks[0] + dtlb_walks[1] + dtlb_walks[2];
  }

  ThreadCounters& operator+=(const ThreadCounters& o) {
    for_each_field([](const char*, count_t& x, count_t y) { x += y; }, *this,
                   o);
    return *this;
  }

  /// Element-wise difference (for region deltas); *this must dominate o.
  ThreadCounters minus(const ThreadCounters& o) const {
    ThreadCounters d;
    for_each_field(
        [](const char*, count_t& dx, count_t x, count_t y) { dx = x - y; }, d,
        *this, o);
    return d;
  }

  /// The one list of fields: calls f(name, c.field...) once per counter, in
  /// declaration order, with that field of each of `cs`. Every element-wise
  /// operation loops over it, so a new counter is a field above plus one
  /// line here.
  template <class F, class... Cs>
  static void for_each_field(F&& f, Cs&... cs) {
    f("compute_cycles", cs.compute_cycles...);
    f("accesses", cs.accesses...);
    f("stores", cs.stores...);
    f("l1d_misses", cs.l1d_misses...);
    f("l2d_misses", cs.l2d_misses...);
    f("dtlb_l1_misses", cs.dtlb_l1_misses...);
    f("dtlb_l2_hits", cs.dtlb_l2_hits...);
    f("dtlb_walks_4k", cs.dtlb_walks[0]...);
    f("dtlb_walks_2m", cs.dtlb_walks[1]...);
    f("dtlb_walks_1g", cs.dtlb_walks[2]...);
    f("walk_levels", cs.walk_levels...);
    f("pwc_hits", cs.pwc_hits...);
    f("pte_l2_hits", cs.pte_l2_hits...);
    f("pte_mem_misses", cs.pte_mem_misses...);
    f("itlb_lookups", cs.itlb_lookups...);
    f("itlb_misses", cs.itlb_misses...);
    f("prefetch_covered", cs.prefetch_covered...);
    f("long_stalls", cs.long_stalls...);
  }
};

}  // namespace lpomp::sim

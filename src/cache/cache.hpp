// Set-associative data-cache model with true LRU per set.
//
// The cache hierarchy matters to the study for two reasons: (1) the paper's
// platforms differ exactly here (Opteron: private 1 MB L2 per core; Xeon:
// L2 shared by the cores of a chip), and (2) an access that misses to
// memory is a "long stall" — the event that triggers the Xeon's
// pipeline-flushing SMT context switch.
//
// Indexing is by simulated virtual address. The paper's machines are
// physically tagged, but with the simulator's eager 1:1 region mappings the
// set-index distribution is equivalent, and virtual indexing avoids a page
// walk per cache probe.
//
// Hot-path layout: access() is the single most-called function of the whole
// simulator, so it stays inline down to the tag store's MRU-filter check;
// the tag store itself is the shared LruSets engine (cache/lru_sets.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "cache/lru_sets.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

namespace lpomp::cache {

struct CacheGeometry {
  std::size_t size_bytes = 0;
  std::size_t line_bytes = 64;
  unsigned ways = 8;

  bool present() const { return size_bytes > 0; }
  std::size_t lines() const { return size_bytes / line_bytes; }
  std::size_t sets() const {
    LPOMP_CHECK(present() && ways > 0 && lines() >= ways &&
                lines() % ways == 0);
    return lines() / ways;
  }
  /// Geometry with capacity divided among `sharers` co-resident threads —
  /// the deterministic first-order model of destructive sharing used when
  /// several simulated threads share one physical cache.
  CacheGeometry shared_slice(unsigned sharers) const;
};

class Cache {
 public:
  Cache(std::string name, CacheGeometry geom);

  /// Returns true on hit. A miss allocates the line (write-allocate for
  /// stores; write-back traffic is not modelled — the paper's effects are
  /// read-latency effects).
  bool access(vaddr_t addr, bool is_store) {
    ++stats_.lookups;
    if (is_store) ++stats_.store_lookups;
    if (!tags_.access(addr >> line_shift_)) return false;
    ++stats_.hits;
    return true;
  }

  /// True when an access to `addr` would hit the 1-entry MRU filter (and is
  /// therefore a guaranteed hit with no LRU side effects — the bulk fast
  /// path's precondition).
  bool mru_hit(vaddr_t addr) const {
    return tags_.mru_hit(addr >> line_shift_);
  }

  /// Bulk accounting for `n` accesses the caller has proven would each hit
  /// the MRU filter (mru_hit(addr) for every one). Identical to n access()
  /// calls taking the filter path.
  void credit_mru_run(bool is_store, count_t n) {
    stats_.lookups += n;
    if (is_store) stats_.store_lookups += n;
    stats_.hits += n;
    tags_.credit_mru(n);
  }

  void flush() { tags_.flush(); }

  const CacheGeometry& geometry() const { return geom_; }
  const std::string& name() const { return name_; }

  struct Stats {
    count_t lookups = 0;
    count_t hits = 0;
    count_t store_lookups = 0;
    count_t misses() const { return lookups - hits; }
    double miss_rate() const {
      return lookups ? static_cast<double>(misses()) /
                           static_cast<double>(lookups)
                     : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  /// Hint-table slots of a cache's tag store.
  static constexpr std::size_t kHintSlots = 2048;

  std::string name_;
  CacheGeometry geom_;
  std::size_t line_shift_;
  LruSets tags_;  ///< line addresses (addr >> line_shift_)
  Stats stats_;
};

}  // namespace lpomp::cache

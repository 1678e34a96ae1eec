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
// simulator, so it stays inline down to the tag store's filter and hint
// checks; the tag store itself is the shared LruSets engine
// (cache/lru_sets.hpp).
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
  bool access(vaddr_t addr, bool /*is_store*/) {
    return tags_.access(addr >> line_shift_);
  }

  /// True when `addr`'s line is the newest line of its set (and an access to
  /// it is therefore a guaranteed hit with no LRU side effects — the cache
  /// half of ThreadSim's closed-form credit rule; see LruSets::mru_hit).
  bool mru_hit(vaddr_t addr) const {
    return tags_.mru_hit(addr >> line_shift_);
  }

  void flush() { tags_.flush(); }

  /// Lines currently held; never above geometry().lines().
  std::size_t occupancy() const { return tags_.occupancy(); }

  const CacheGeometry& geometry() const { return geom_; }
  const std::string& name() const { return name_; }

 private:
  /// Hint-table slots of a cache's tag store.
  static constexpr std::size_t kHintSlots = 2048;

  std::string name_;
  CacheGeometry geom_;
  std::size_t line_shift_;
  LruSets tags_;  ///< line addresses (addr >> line_shift_)
};

}  // namespace lpomp::cache

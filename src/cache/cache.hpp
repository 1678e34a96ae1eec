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
// simulator, so its MRU-filter check is inlined here and only the
// associative search lives out of line. The search itself is fronted by a
// direct-mapped probe table of line→slot hints; a verified hint performs
// exactly the side effects of the associative hit (timestamp, MRU, stats),
// so the hint table is invisible in every counter — it only skips the scan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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
    LPOMP_CHECK(present() && lines() % ways == 0);
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
    const std::uint64_t line_addr = addr >> line_shift_;
    if (mru_line_ == line_addr) {
      ++stats_.hits;
      return true;
    }
    return access_assoc(line_addr);
  }

  /// True when an access to `addr` would hit the 1-entry MRU filter (and is
  /// therefore a guaranteed hit with no LRU side effects — the bulk fast
  /// path's precondition).
  bool mru_hit(vaddr_t addr) const {
    return mru_line_ == (addr >> line_shift_);
  }

  /// Bulk accounting for `n` accesses the caller has proven would each hit
  /// the MRU filter (mru_hit(addr) for every one). Identical to n access()
  /// calls taking the filter path: stats only — the filter path neither
  /// advances the LRU clock nor restamps the line.
  void credit_mru_run(bool is_store, count_t n) {
    stats_.lookups += n;
    if (is_store) stats_.store_lookups += n;
    stats_.hits += n;
  }

  void flush();

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
  /// Tag of an empty line (and of an empty MRU filter). No line address
  /// reaches it: line_shift_ >= 1 leaves the top bit of addr >> line_shift_
  /// clear.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  struct Line {
    std::uint64_t tag = kEmpty;
    std::uint64_t last_use = 0;
  };

  /// The associative path of access(): probe-hint check, then set scan,
  /// then allocation on miss. The lookup itself is already counted; a hit
  /// here still owes ++hits (and, unlike the MRU path, stamps the line).
  bool access_assoc(std::uint64_t line_addr);

  std::string name_;
  CacheGeometry geom_;
  std::size_t line_shift_;
  std::size_t sets_;
  std::size_t set_mask_;  ///< sets_ - 1 when sets_ is a power of two
  bool pow2_sets_;
  std::vector<Line> lines_;  // sets() * ways, set-major
  std::uint64_t clock_ = 0;
  // MRU filter: repeated touches of the current line skip the set search.
  std::uint64_t mru_line_ = kEmpty;
  // Direct-mapped slot hints (line_addr → index into lines_). Every hint is
  // verified against the tag before use, so stale entries are harmless.
  static constexpr std::size_t kProbeSlots = 2048;
  std::vector<std::uint32_t> probe_;
  Stats stats_;
};

}  // namespace lpomp::cache

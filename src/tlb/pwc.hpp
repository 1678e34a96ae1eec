// Page-walk cache (PWC): small tagged caches of upper-level page-table
// entries, one per interior level of the 4-level radix walk. A hardware
// walker with a PWC starts each walk at the deepest interior level whose
// entry is cached, instead of always descending from the root — on modern
// cores this turns most 4-level walks into 1-2 memory references. The
// paper's 2007 platforms have no PWC (the config defaults to absent and
// the model is then bypassed entirely); the "modern" processor spec adds
// one so the 1 GiB / THP scenarios are measured against a realistic walker.
//
// Model: for interior level l (0 = root, kLevels-2 = deepest interior),
// the tag is the virtual-address prefix that selects the level-l entry,
// addr >> (12 + 9 * (kLevels-1-l)). Each level is an independent
// set-associative true-LRU tag store (cache::LruSets). On a walk the
// simulator asks for the deepest cached interior level d; levels 0..d are
// skipped (their reads are PWC hits, not memory references) and charging
// starts at d+1. The leaf entry is never cached — real PWCs cache
// PDE/PUD/PML4 entries only.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/lru_sets.hpp"
#include "mem/page_table.hpp"
#include "support/types.hpp"

namespace lpomp::tlb {

/// Geometry of one page-walk cache level. entries == 0 (the default) means
/// the core has no PWC and every walk descends from the root.
struct PwcConfig {
  unsigned entries = 0;  ///< tags per interior level
  unsigned ways = 0;     ///< ways == entries → fully associative

  bool present() const { return entries > 0; }

  bool operator==(const PwcConfig&) const = default;
};

class Pwc {
 public:
  struct Stats {
    count_t lookups = 0;  ///< walks that probed the PWC
    count_t hits = 0;     ///< walks that skipped >= 1 level
  };

  Pwc() = default;
  explicit Pwc(const PwcConfig& config) : config_(config) {
    if (!config_.present()) return;
    for (unsigned l = 0; l + 1 < mem::PageTable::kLevels; ++l) {
      levels_.emplace_back(config_.entries, config_.ways, kHintSlots);
    }
  }

  bool present() const { return config_.present(); }
  const PwcConfig& config() const { return config_; }

  /// Deepest interior level in [0, interior_levels) whose entry for `addr`
  /// is cached, or -1. A hit refreshes that level's LRU state (a PWC read
  /// is a use). `interior_levels` is the walk's level count minus one —
  /// the leaf is not a PWC candidate.
  int deepest_cached(vaddr_t addr, unsigned interior_levels) {
    ++stats_.lookups;
    for (int l = static_cast<int>(interior_levels) - 1; l >= 0; --l) {
      if (levels_[static_cast<std::size_t>(l)].find(
              tag(addr, static_cast<unsigned>(l)))) {
        ++stats_.hits;
        return l;
      }
    }
    return -1;
  }

  /// Installs the interior-entry tags a completed walk just read, evicting
  /// per-level LRU victims as needed.
  void insert(vaddr_t addr, unsigned interior_levels) {
    for (unsigned l = 0; l < interior_levels; ++l) {
      levels_[l].fill(tag(addr, l));
    }
  }

  void flush() {
    for (cache::LruSets& level : levels_) level.flush();
  }

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  /// Hint-table slots of each level's tag store.
  static constexpr std::size_t kHintSlots = 256;

  /// Virtual-address prefix selecting the level-l entry: level l resolves
  /// bits [12 + 9*(kLevels-1-l), 48), so l=0 → addr>>39, l=2 → addr>>21.
  static std::uint64_t tag(vaddr_t addr, unsigned l) {
    const unsigned shift =
        static_cast<unsigned>(kSmallPageShift) +
        mem::PageTable::kBitsPerLevel * (mem::PageTable::kLevels - 1 - l);
    return addr >> shift;
  }

  PwcConfig config_;
  // One tag store per interior level (root, PUD, PMD for kLevels == 4);
  // empty when the PWC is absent.
  std::vector<cache::LruSets> levels_;
  Stats stats_;
};

}  // namespace lpomp::tlb

// Translation Lookaside Buffer model.
//
// Real x86 TLBs keep *separate* entry arrays for 4 KB and 2 MB translations
// (the paper's Table 1: e.g. the Xeon DTLB has 128 4 KB entries but only 32
// 2 MB entries, and the Opteron's L2 DTLB has no 2 MB entries at all). That
// asymmetry is the crux of §3.2 "Application Locality and Large Pages", so
// the model keeps one set-associative structure per page kind, each with
// true-LRU replacement within a set.
//
// Each present structure is one cache::LruSets tag store keyed by vpn, the
// engine behind the data caches too: lookup() and access() are inline down
// to the tag store's filter and hint checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cache/lru_sets.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

namespace lpomp::tlb {

/// Geometry of one TLB structure. entries == 0 means the structure cannot
/// hold translations of that page kind (e.g. Opteron L2 DTLB for 2 MB).
struct TlbGeometry {
  unsigned entries = 0;
  unsigned ways = 0;  ///< ways == entries → fully associative

  bool present() const { return entries > 0; }
  unsigned sets() const {
    LPOMP_CHECK(present() && ways > 0 && entries % ways == 0);
    return entries / ways;
  }
  /// Bytes of address space this structure can map at once.
  std::uint64_t reach(PageKind kind) const {
    return static_cast<std::uint64_t>(entries) * page_size(kind);
  }

  /// Geometry with capacity divided among `sharers` co-resident hardware
  /// threads (the paper's "the effective number of TLB entries could
  /// potentially be halved" under SMT). Keeps at least one set.
  TlbGeometry shared_slice(unsigned sharers) const {
    LPOMP_CHECK(sharers > 0);
    if (sharers == 1 || !present()) return *this;
    LPOMP_CHECK(ways > 0);
    TlbGeometry slice = *this;
    if (ways >= entries) {
      // Fully associative: shrink the single set.
      slice.entries = std::max(1u, entries / sharers);
      slice.ways = slice.entries;
    } else {
      // Set associative: drop whole sets, keep associativity.
      unsigned e = entries / sharers;
      if (e < ways) e = ways;
      slice.entries = e / ways * ways;
      slice.ways = ways;
    }
    return slice;
  }
};

/// One TLB level (e.g. "Opteron L1 DTLB"): a 4 KB structure and a 2 MB
/// structure looked up in parallel by page kind.
class Tlb {
 public:
  struct Config {
    std::string name;
    TlbGeometry small4k;
    TlbGeometry large2m;
    /// 1 GiB entries. Absent ({0,0}) on the paper's 2007 platforms; modern
    /// geometries dedicate a handful of entries to 1 GiB translations.
    TlbGeometry huge1g;
  };

  explicit Tlb(Config config);

  /// True if this level can cache translations of `kind` at all.
  bool supports(PageKind kind) const {
    return geometry(kind).present();
  }

  /// Probe for a translation. A hit refreshes LRU state.
  bool lookup(vpn_t vpn, PageKind kind) {
    auto& b = banks_[static_cast<std::size_t>(kind)];
    return b && b->find(vpn);
  }

  /// lookup() and, on a miss, insert() in one scan of the bank: the same
  /// outcome and LRU state as that pair.
  bool access(vpn_t vpn, PageKind kind) {
    auto& b = banks_[static_cast<std::size_t>(kind)];
    return b && b->access(vpn);
  }

  /// lookup() without the bank scan (cache::LruSets::find_hinted): true on
  /// a hit in the bank's filter or verified hint, stamped as lookup()
  /// stamps it; otherwise false, changing nothing, even when the bank
  /// holds `vpn`.
  bool lookup_hinted(vpn_t vpn, PageKind kind) {
    auto& b = banks_[static_cast<std::size_t>(kind)];
    return b && b->find_hinted(vpn);
  }

  /// Install a translation (evicting the set's LRU victim if full).
  /// No-op if the level has no entries for this kind.
  void insert(vpn_t vpn, PageKind kind);

  /// Drop every entry (models a context switch without ASIDs/PCIDs —
  /// pre-Nehalem x86, as in the paper's 2007 hardware).
  void flush();

  /// Valid entries currently held for `kind` — always ≤
  /// geometry(kind).entries (the capacity invariant the property tests pin).
  unsigned occupancy(PageKind kind) const;

  const TlbGeometry& geometry(PageKind kind) const {
    switch (kind) {
      case PageKind::small4k:
        return config_.small4k;
      case PageKind::large2m:
        return config_.large2m;
      case PageKind::huge1g:
        return config_.huge1g;
    }
    return config_.small4k;
  }
  const std::string& name() const { return config_.name; }

 private:
  /// Hint-table slots of each bank's tag store.
  static constexpr std::size_t kHintSlots = 256;

  Config config_;
  /// Indexed by PageKind; empty for a kind the level cannot hold.
  std::optional<cache::LruSets> banks_[kPageKindCount];
};

}  // namespace lpomp::tlb

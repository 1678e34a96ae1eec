// Two-level data TLB plus instruction TLB, wired the way the paper's two
// platforms are: the Opteron has an L1 DTLB (4 KB + 2 MB entries) backed by
// an L2 DTLB (4 KB entries only); the Xeon has a single-level DTLB. One
// hierarchy instance exists per core and is shared by both SMT contexts on
// the Xeon — the sharing the paper says "may potentially halve" effective
// capacity.
#pragma once

#include <memory>
#include <optional>

#include "tlb/pwc.hpp"
#include "tlb/tlb.hpp"

namespace lpomp::tlb {

/// Where a data translation was found.
enum class DtlbHit : std::uint8_t {
  l1,    ///< L1 DTLB hit — no penalty
  l2,    ///< L1 miss, L2 DTLB hit — small penalty, L1 refilled
  walk,  ///< full DTLB miss — hardware page walk required
};

class TlbHierarchy {
 public:
  /// `l2d` is optional: the Xeon model has no second data level.
  TlbHierarchy(Tlb::Config itlb, Tlb::Config l1d,
               std::optional<Tlb::Config> l2d);

  /// Probes for a data translation, refilling on the way back:
  /// a walk fills both levels (that support the kind), an L2 hit refills L1.
  /// The L1-hit path — the overwhelmingly common case — is inlined.
  DtlbHit data_access(vpn_t vpn, PageKind kind) {
    if (l1d_.lookup(vpn, kind)) return DtlbHit::l1;
    return data_access_miss(vpn, kind);
  }

  /// True when a data access to `vpn` would hit the L1 DTLB's MRU filter —
  /// the bulk fast path's guarantee of a DtlbHit::l1 outcome.
  bool data_mru_hit(vpn_t vpn, PageKind kind) const {
    return l1d_.mru_hit(vpn, kind);
  }

  /// Bulk accounting for `n` guaranteed L1 MRU hits (see Tlb::credit_mru_run).
  void credit_data_mru_run(PageKind kind, count_t n) {
    l1d_.credit_mru_run(kind, n);
  }

  /// Probes for an instruction translation; returns true on a hit and fills
  /// on a miss.
  bool instr_access(vpn_t vpn, PageKind kind);

  /// Drops all translations (context switch on pre-ASID hardware).
  void flush_all();

  Tlb& itlb() { return itlb_; }
  Tlb& l1d() { return l1d_; }
  bool has_l2d() const { return l2d_.has_value(); }
  Tlb& l2d() {
    LPOMP_CHECK(has_l2d());
    return *l2d_;
  }

  /// Installs (or removes, with an absent config) the page-walk cache.
  /// Lives here rather than in ThreadSim so flush_all() — the context-switch
  /// model — covers it like every other translation structure.
  void set_pwc(const PwcConfig& config) { pwc_ = Pwc(config); }
  Pwc& pwc() { return pwc_; }
  const Pwc& pwc() const { return pwc_; }

  /// Misses that required a page walk (per page kind), i.e. the events
  /// OProfile counts as "L1 and L2 DTLB miss" in the paper's Figure 5.
  count_t walk_count(PageKind kind) const {
    return walks_[static_cast<std::size_t>(kind)];
  }
  count_t walk_count() const { return walks_[0] + walks_[1] + walks_[2]; }

  count_t itlb_miss_count() const {
    return itlb_.stats().misses(PageKind::small4k) +
           itlb_.stats().misses(PageKind::large2m);
  }

  void reset_stats();

 private:
  /// L1-miss continuation of data_access: L2 probe, walk, refills.
  DtlbHit data_access_miss(vpn_t vpn, PageKind kind);

  Tlb itlb_;
  Tlb l1d_;
  std::optional<Tlb> l2d_;
  Pwc pwc_;  ///< absent by default; see set_pwc()
  count_t walks_[kPageKindCount] = {0, 0, 0};
};

}  // namespace lpomp::tlb

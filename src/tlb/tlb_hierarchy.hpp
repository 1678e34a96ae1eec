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
  /// Every miss refills L1, so the L1 probe and refill are one
  /// Tlb::access(); the L1-hit path — the overwhelmingly common case — is
  /// inlined.
  DtlbHit data_access(vpn_t vpn, PageKind kind) {
    if (l1d_.access(vpn, kind)) return DtlbHit::l1;
    return data_access_miss(vpn, kind);
  }

  /// data_access()'s L1 hit without the L1 bank scan (Tlb::lookup_hinted):
  /// true, with the entry stamped as data_access() stamps it, when `vpn`
  /// is the bank's filter or verified hint; otherwise false, changing
  /// nothing, and data_access() decides the outcome. The TLB half of
  /// ThreadSim's closed-form credit rule.
  bool data_hint_hit(vpn_t vpn, PageKind kind) {
    return l1d_.lookup_hinted(vpn, kind);
  }

  /// Probes for an instruction translation; returns true on a hit and fills
  /// on a miss.
  bool instr_access(vpn_t vpn, PageKind kind) {
    return itlb_.access(vpn, kind);
  }

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
  void set_pwc(const PwcConfig& config) {
    pwc_ = Pwc(config);
    walk_only_kinds_ = walk_only_mask();
  }
  Pwc& pwc() { return pwc_; }
  const Pwc& pwc() const { return pwc_; }

  /// True when every data access of `kind` walks and its probes change no
  /// TLB or PWC state: no data level can hold the kind, and there is no
  /// PWC (the Opteron under huge1g). The walk credit's precondition on the
  /// translation structures (DESIGN.md §7).
  bool walk_only(PageKind kind) const {
    return (walk_only_kinds_ >> static_cast<unsigned>(kind)) & 1u;
  }

 private:
  /// L1-miss continuation of data_access (L1 already refilled): the L2
  /// probe-or-fill.
  DtlbHit data_access_miss(vpn_t vpn, PageKind kind);

  /// The walk_only() kinds as a bit mask, one bit per PageKind.
  std::uint8_t walk_only_mask() const;

  Tlb itlb_;
  Tlb l1d_;
  std::optional<Tlb> l2d_;
  Pwc pwc_;  ///< absent by default; see set_pwc()
  std::uint8_t walk_only_kinds_ = 0;  ///< walk_only_mask(), kept by set_pwc()
};

}  // namespace lpomp::tlb

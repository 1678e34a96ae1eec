// lpomp::paging — the paging-policy overlay (DESIGN.md §11).
//
// The paper's experiment varies the memory *layout*: regions are mapped as
// 4 KB anonymous pages or 2 MB hugetlbfs pages, and the recorded address
// streams depend on that layout (pool bases, page-table shape). A 2026
// reader asks about scenarios the layout axis cannot express: 1 GiB pages,
// transparent huge pages under fragmentation, page-walk caches. This module
// adds those as a *translation overlay* that is orthogonal to layout: the
// kernel still issues the same addresses against the same mapped regions
// (streams stay policy-independent, so one recorded trace replays
// unchanged under every policy), but the simulator reinterprets each
// (address, layout kind) pair into an effective (vpn, page kind) at
// TLB-accounting time:
//
//   native     — identity; the effective kind IS the layout kind. The
//                default everywhere; all pre-policy behaviour is
//                bit-for-bit unchanged.
//   base4k     — every translation is a 4 KB entry regardless of layout
//                (a kernel with huge pages disabled).
//   hugetlb2m  — every translation is a 2 MB entry (a hugetlbfs-backed
//                heap), even over a 4 KB layout.
//   huge1g     — every translation is a 1 GiB PUD-level leaf: vpn is
//                addr >> 30 and the page walk touches exactly 2 levels.
//   thp        — transparent huge pages: each 2 MB-aligned chunk of the
//                address space is independently promoted (2 MB entry) or
//                left as 4 KB entries, decided by a deterministic
//                seed-keyed buddy-fragmentation model (below).
//
// Effective page walks consult the real page table and are then adjusted
// to the effective depth: a coarser effective kind truncates the walk (the
// real interior entry at that depth becomes the modelled leaf — correct,
// because the radix table computes one entry address per region per
// level), while a finer effective kind (base4k or an unpromoted thp chunk
// over a 2 MB layout) extends it with a synthetic PTE in a disjoint
// high-physical range, eight synthetic PTEs per 64 B line, exactly like a
// real PT node the layout never materialised.
//
// THP fragmentation model: external fragmentation of the buddy allocator
// grows as chunks are faulted in and collapses at each compaction run. The
// model is a pure function of the chunk index — phase = chunk mod
// compaction_interval picks a point in the sawtooth, fragmentation =
// frag_base + frag_growth * phase, and the promotion succeeds when a
// splitmix64 draw keyed by (frag_seed, chunk) lands under 1 - fragmentation.
// Purity is what keeps live runs and trace replays bit-identical: the
// decision for a chunk does not depend on access order, thread count, or
// which thread asks first, and the promotion rate is reproducible for a
// fixed seed.
#pragma once

#include <cstdint>
#include <string>

#include "mem/address_space.hpp"
#include "support/names.hpp"
#include "support/types.hpp"

namespace lpomp::paging {

enum class Policy : std::uint8_t {
  native = 0,
  base4k = 1,
  hugetlb2m = 2,
  huge1g = 3,
  thp = 4,
};

/// The name table of the paging-policy axis, in enum order.
inline constexpr NameTable<Policy, 5> kPolicies{
    "paging policy", {"native", "base4k", "hugetlb2m", "huge1g", "thp"}};

inline const char* policy_name(Policy p) { return kPolicies.name(p); }

/// Parses policy_name() output ("thp"); nullopt for anything else.
inline std::optional<Policy> policy_from_name(std::string_view name) {
  return kPolicies.parse(name);
}

/// Knobs of the deterministic buddy-fragmentation model. All four enter the
/// cache-key fingerprint when the policy is thp.
struct ThpParams {
  std::uint64_t frag_seed = 0x7468'70ULL;  ///< "thp"
  /// External fragmentation right after a compaction run.
  double frag_base = 0.15;
  /// Added fragmentation per chunk of sawtooth phase.
  double frag_growth = 0.07;
  /// Chunks per compaction cycle (sawtooth period).
  std::uint32_t compaction_interval = 16;

  bool operator==(const ThpParams&) const = default;
};

/// A policy choice plus its parameters — the unit that rides in RunTask,
/// RuntimeConfig and ReplayConfig and enters the fingerprint.
struct PolicySpec {
  Policy policy = Policy::native;
  ThpParams thp;

  bool is_native() const { return policy == Policy::native; }
  const char* name() const { return policy_name(policy); }

  /// This policy as it acts on accesses to [base, base + bytes), a region
  /// laid out with `layout` pages (DESIGN.md §11). First, thp is hugetlb2m
  /// there when every 2 MB chunk the region overlaps is promoted, and
  /// base4k when none is. Then base4k over 4 KB and hugetlb2m over 2 MB
  /// are native. Every other case comes back unchanged. The rule is exact:
  /// for a promoted chunk thp's translation is {addr >> 21, large2m},
  /// hugetlb2m's, and for an unpromoted one {addr >> 12, small4k},
  /// base4k's; a policy that forces the layout's own size translates as
  /// native does, and PagingModel::walk depends only on the address, the
  /// layout and the effective kind. `bytes` must be positive.
  PolicySpec on_region(PageKind layout, vaddr_t base, std::size_t bytes) const;

  bool operator==(const PolicySpec&) const = default;
};

/// One reinterpreted translation: the effective vpn/kind the TLBs and walk
/// accounting see for an access.
struct Translation {
  vpn_t vpn = 0;
  PageKind kind = PageKind::small4k;
};

/// The per-thread policy engine. Cheap to copy/construct; holds no state
/// beyond the spec and a single-entry memo of the last thp chunk decision
/// (pure memoisation — the decision itself is order-independent).
class PagingModel {
 public:
  PagingModel() = default;
  explicit PagingModel(const PolicySpec& spec);

  const PolicySpec& spec() const { return spec_; }
  bool identity() const { return identity_; }

  /// Effective translation for an access to `addr` in a region laid out
  /// with `layout` pages. Hot path: native is one branch, and base4k,
  /// hugetlb2m and huge1g are a shift by a kind fixed at construction;
  /// only thp leaves the header.
  Translation translate(vaddr_t addr, PageKind layout) const {
    if (identity_) return {addr >> page_shift(layout), layout};
    if (!thp_) return {addr >> fixed_shift_, fixed_kind_};
    return translate_slow(addr);
  }

  /// Policy-adjusted page walk: consults the real table (asserting the
  /// layout matches), then truncates or synthetically extends the result
  /// to the effective kind's depth. For native this is exactly
  /// space.translate().
  mem::WalkResult walk(const mem::AddressSpace& space, vaddr_t addr,
                       PageKind layout, PageKind effective) const;

  /// The deterministic fragmentation decision for a 2 MB chunk index
  /// (addr >> 21). Meaningful for any policy (used by tests); only thp
  /// consults it during translation.
  bool thp_promoted(std::uint64_t chunk) const;

  /// Probability the model promotes this chunk (the sawtooth value the
  /// draw is compared against).
  double thp_promotion_probability(std::uint64_t chunk) const;

 private:
  /// The thp translation: a 2 MB entry if the chunk is promoted.
  Translation translate_slow(vaddr_t addr) const;

  PolicySpec spec_;
  bool identity_ = true;
  bool thp_ = false;
  /// The one effective kind of base4k, hugetlb2m and huge1g, and its shift.
  PageKind fixed_kind_ = PageKind::small4k;
  std::size_t fixed_shift_ = kSmallPageShift;
  // Loop bodies hammer one chunk; memoising the last decision keeps the
  // thp hot path at one compare. Mutable because memoisation is invisible.
  mutable std::uint64_t memo_chunk_ = ~std::uint64_t{0};
  mutable bool memo_promoted_ = false;
};

}  // namespace lpomp::paging

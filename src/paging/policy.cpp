#include "paging/policy.hpp"

#include "mem/page_table.hpp"
#include "support/error.hpp"

namespace lpomp::paging {
namespace {

/// Synthetic PTE frames for walks one level deeper than the layout's real
/// table (a 4 KB effective view of a 2 MB region). Placed in a high
/// physical range no PhysMem allocation reaches, so synthetic PTE lines
/// never alias real data or real table nodes; consecutive 4 KB pages share
/// a 64 B PTE line (8 entries x 8 bytes), like a real PT node.
constexpr paddr_t kSyntheticPteBase = paddr_t{1} << 56;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Uniform draw in [0, 1) from a 64-bit hash (53 mantissa bits).
double u01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

double PagingModel::thp_promotion_probability(std::uint64_t chunk) const {
  const std::uint32_t interval =
      spec_.thp.compaction_interval == 0 ? 1 : spec_.thp.compaction_interval;
  const double phase = static_cast<double>(chunk % interval);
  const double frag = spec_.thp.frag_base + spec_.thp.frag_growth * phase;
  const double p = 1.0 - frag;
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  return p;
}

bool PagingModel::thp_promoted(std::uint64_t chunk) const {
  if (chunk == memo_chunk_) return memo_promoted_;
  const std::uint64_t draw =
      splitmix64(spec_.thp.frag_seed ^ (chunk * 0x9E3779B97F4A7C15ULL));
  const bool promoted = u01(draw) < thp_promotion_probability(chunk);
  memo_chunk_ = chunk;
  memo_promoted_ = promoted;
  return promoted;
}

PolicySpec PolicySpec::on_region(PageKind layout, vaddr_t base,
                                 std::size_t bytes) const {
  LPOMP_CHECK_MSG(bytes > 0, "paging rule over an empty region");
  PolicySpec spec = *this;
  if (policy == Policy::thp) {
    const PagingModel model(*this);
    const std::uint64_t first = base >> kLargePageShift;
    const std::uint64_t last = (base + bytes - 1) >> kLargePageShift;
    std::uint64_t promoted = 0;
    for (std::uint64_t c = first; c <= last; ++c) {
      promoted += model.thp_promoted(c) ? 1 : 0;
    }
    if (promoted == last - first + 1) spec = PolicySpec{Policy::hugetlb2m, {}};
    if (promoted == 0) spec = PolicySpec{Policy::base4k, {}};
  }
  const bool forces_layout =
      (spec.policy == Policy::base4k && layout == PageKind::small4k) ||
      (spec.policy == Policy::hugetlb2m && layout == PageKind::large2m);
  return forces_layout ? PolicySpec{} : spec;
}

PagingModel::PagingModel(const PolicySpec& spec)
    : spec_(spec),
      identity_(spec.is_native()),
      thp_(spec.policy == Policy::thp) {
  if (spec.policy == Policy::hugetlb2m) fixed_kind_ = PageKind::large2m;
  if (spec.policy == Policy::huge1g) fixed_kind_ = PageKind::huge1g;
  fixed_shift_ = page_shift(fixed_kind_);
}

Translation PagingModel::translate_slow(vaddr_t addr) const {
  if (thp_promoted(addr >> kLargePageShift)) {
    return {addr >> kLargePageShift, PageKind::large2m};
  }
  return {addr >> kSmallPageShift, PageKind::small4k};
}

mem::WalkResult PagingModel::walk(const mem::AddressSpace& space, vaddr_t addr,
                                  PageKind layout, PageKind effective) const {
  mem::WalkResult w = space.translate(addr);
  LPOMP_CHECK_MSG(w.present, "paging walk of an unmapped address");
  LPOMP_CHECK_MSG(w.kind == layout, "paging walk layout mismatch");
  if (effective == layout) return w;

  const unsigned eff_levels = mem::PageTable::leaf_level(effective) + 1;
  if (eff_levels <= w.levels_touched) {
    // Coarser effective kind: the real interior entry at the effective
    // depth becomes the modelled leaf. Every address inside one effective
    // page shares that entry address, exactly like a real large-page leaf.
    w.levels_touched = eff_levels;
  } else {
    // Finer effective kind: the layout's leaf acts as the interior entry
    // and the missing PT level is synthesised (see kSyntheticPteBase).
    for (unsigned l = w.levels_touched; l < eff_levels; ++l) {
      w.entry_addr[l] =
          kSyntheticPteBase + (addr >> kSmallPageShift) * sizeof(paddr_t);
    }
    w.levels_touched = eff_levels;
  }
  w.kind = effective;
  return w;
}

}  // namespace lpomp::paging

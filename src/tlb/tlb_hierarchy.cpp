#include "tlb/tlb_hierarchy.hpp"

namespace lpomp::tlb {

TlbHierarchy::TlbHierarchy(Tlb::Config itlb, Tlb::Config l1d,
                           std::optional<Tlb::Config> l2d)
    : itlb_(std::move(itlb)), l1d_(std::move(l1d)) {
  if (l2d) l2d_.emplace(std::move(*l2d));
  walk_only_kinds_ = walk_only_mask();
}

std::uint8_t TlbHierarchy::walk_only_mask() const {
  if (pwc_.present()) return 0;
  std::uint8_t mask = 0;
  for (PageKind kind :
       {PageKind::small4k, PageKind::large2m, PageKind::huge1g}) {
    if (!l1d_.supports(kind) && !(l2d_ && l2d_->supports(kind))) {
      mask |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(kind));
    }
  }
  return mask;
}

DtlbHit TlbHierarchy::data_access_miss(vpn_t vpn, PageKind kind) {
  // data_access's Tlb::access already refilled L1. One probe-or-fill of the
  // L2 tells an L2 hit from a full miss, where the hardware walker fetches
  // the translation and fills the hierarchy. A kind the L2 cannot hold (2 MB
  // on the Opteron) fills L1 only, so such pages keep missing once the small
  // L1 2 MB bank thrashes — the ">2 MB stride" caveat of §3.2.
  if (l2d_ && l2d_->supports(kind) && l2d_->access(vpn, kind)) {
    return DtlbHit::l2;
  }
  return DtlbHit::walk;
}

void TlbHierarchy::flush_all() {
  itlb_.flush();
  l1d_.flush();
  if (l2d_) l2d_->flush();
  pwc_.flush();
}

}  // namespace lpomp::tlb

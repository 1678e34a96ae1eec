#include "tlb/tlb.hpp"

namespace lpomp::tlb {

Tlb::Tlb(Config config) : config_(std::move(config)) {
  for (PageKind kind :
       {PageKind::small4k, PageKind::large2m, PageKind::huge1g}) {
    const TlbGeometry& geom = geometry(kind);
    if (geom.present()) {
      banks_[static_cast<std::size_t>(kind)].emplace(geom.entries, geom.ways,
                                                     kHintSlots);
    }
  }
}

void Tlb::insert(vpn_t vpn, PageKind kind) {
  auto& b = banks_[static_cast<std::size_t>(kind)];
  if (b) b->fill(vpn);
}

unsigned Tlb::occupancy(PageKind kind) const {
  const auto& b = banks_[static_cast<std::size_t>(kind)];
  return b ? static_cast<unsigned>(b->occupancy()) : 0;
}

void Tlb::flush() {
  for (auto& b : banks_) {
    if (b) b->flush();
  }
}

}  // namespace lpomp::tlb

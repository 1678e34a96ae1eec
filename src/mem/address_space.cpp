#include "mem/address_space.hpp"

#include <algorithm>
#include <stdexcept>

namespace lpomp::mem {

AddressSpace::AddressSpace(PhysMem& pm) : pm_(pm), table_(pm) {}

AddressSpace::~AddressSpace() {
  while (!regions_.empty()) unmap_region(regions_.begin()->first);
}

Region AddressSpace::map_region(std::size_t bytes, PageKind kind,
                                std::string name, FrameSource* source) {
  LPOMP_CHECK_MSG(bytes > 0, "empty region");
  if (source == nullptr) source = &pm_;

  const std::size_t psize = page_size(kind);
  const std::size_t length = (bytes + psize - 1) / psize * psize;
  const std::size_t pages = length / psize;
  const std::size_t order = order_of(kind);

  RegionState state;
  state.region = Region{next_base_[static_cast<std::size_t>(kind)], length,
                        kind, std::move(name)};
  state.source = source;
  state.slots.reserve(pages);

  // Undoes a partial population before an exhaustion is reported.
  const auto roll_back = [&] {
    for (std::size_t i = 0; i < state.slots.size(); ++i) {
      table_.unmap(state.region.base + i * psize);
      source->return_block(state.slots[i].block, order);
    }
  };
  for (std::size_t i = 0; i < pages; ++i) {
    const vaddr_t va = state.region.base + i * psize;
    auto block = source->take_block(order);
    if (!block) {
      roll_back();
      throw std::runtime_error(
          "AddressSpace: cannot back region '" + state.region.name +
          "' with " + std::string(page_kind_name(kind)) + " pages");
    }
    try {
      table_.map(va, *block, kind);
    } catch (const std::runtime_error&) {  // no frame for a table node
      source->return_block(*block, order);
      roll_back();
      throw;
    }
    state.slots.push_back(Slot{*block, kind});
  }

  next_base_[static_cast<std::size_t>(kind)] += length;
  mapped_bytes_[static_cast<std::size_t>(kind)] += length;
  const Region result = state.region;
  regions_.emplace(result.base, std::move(state));
  return result;
}

void AddressSpace::unmap_region(vaddr_t base) {
  auto it = regions_.find(base);
  LPOMP_CHECK_MSG(it != regions_.end(), "unmap of unknown region");
  const RegionState& state = it->second;
  const std::size_t psize = page_size(state.region.kind);
  // A promoted chunk's 512 slots are one huge page: unmap it once.
  for (std::size_t i = 0; i < state.slots.size();
       i += page_size(state.slots[i].kind) / psize) {
    const Slot& slot = state.slots[i];
    const bool was_mapped = table_.unmap(state.region.base + i * psize);
    LPOMP_CHECK(was_mapped);
    source_of(state, slot)->return_block(slot.block, order_of(slot.kind));
    mapped_bytes_[static_cast<std::size_t>(slot.kind)] -=
        page_size(slot.kind);
  }
  regions_.erase(it);
}

bool AddressSpace::promote(vaddr_t chunk_base) {
  LPOMP_CHECK_MSG(chunk_base % kLargePageSize == 0,
                  "promotion chunk must be 2 MB aligned");
  RegionState* state = find_state(chunk_base);
  LPOMP_CHECK_MSG(state != nullptr, "promotion outside any region");
  LPOMP_CHECK_MSG(
      chunk_base + kLargePageSize <= state->region.base + state->region.length,
      "promotion chunk exceeds its region");

  // The chunk must currently consist of 512 small pages.
  constexpr std::size_t kPagesPerChunk = kLargePageSize / kSmallPageSize;
  LPOMP_CHECK_MSG(state->region.kind == PageKind::small4k,
                  "promotion of a chunk that is not 4 KB-mapped");
  Slot* chunk =
      &state->slots[(chunk_base - state->region.base) / kSmallPageSize];
  LPOMP_CHECK_MSG(std::all_of(chunk, chunk + kPagesPerChunk,
                              [](const Slot& s) {
                                return s.kind == PageKind::small4k;
                              }),
                  "promotion of a chunk that is not 4 KB-mapped");

  // A promotion needs an aligned physical 2 MB block; under fragmentation
  // this is exactly what fails (the motivation for the paper's boot-time
  // preallocation).
  auto huge = pm_.alloc_huge_frame();
  if (!huge) return false;

  for (std::size_t i = 0; i < kPagesPerChunk; ++i) {
    table_.unmap(chunk_base + i * kSmallPageSize);
    state->source->return_block(chunk[i].block, 0);
    chunk[i] = Slot{*huge, PageKind::large2m};
  }
  table_.map(chunk_base, *huge, PageKind::large2m);
  mapped_bytes_[static_cast<std::size_t>(PageKind::small4k)] -= kLargePageSize;
  mapped_bytes_[static_cast<std::size_t>(PageKind::large2m)] += kLargePageSize;
  ++promotions_;
  return true;
}

PageKind AddressSpace::kind_at(vaddr_t vaddr) const {
  const RegionState* state = find_state(vaddr);
  LPOMP_CHECK_MSG(state != nullptr, "kind_at of unmapped address");
  return state->slots[(vaddr - state->region.base) /
                      page_size(state->region.kind)]
      .kind;
}

AddressSpace::RegionState* AddressSpace::find_state(vaddr_t vaddr) {
  auto it = regions_.upper_bound(vaddr);
  if (it == regions_.begin()) return nullptr;
  --it;
  RegionState& s = it->second;
  return vaddr < s.region.base + s.region.length ? &s : nullptr;
}

const AddressSpace::RegionState* AddressSpace::find_state(
    vaddr_t vaddr) const {
  return const_cast<AddressSpace*>(this)->find_state(vaddr);
}

const Region* AddressSpace::find_region(vaddr_t vaddr) const {
  const RegionState* s = find_state(vaddr);
  return s != nullptr ? &s->region : nullptr;
}

std::vector<Region> AddressSpace::regions() const {
  std::vector<Region> out;
  out.reserve(regions_.size());
  for (const auto& [base, state] : regions_) out.push_back(state.region);
  return out;
}

}  // namespace lpomp::mem

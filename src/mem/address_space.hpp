// A simulated per-process virtual address space: named regions mapped with a
// chosen page size, backed by frames from a FrameSource and translated
// through the PageTable. This is the layer the modified OpenMP runtime's
// allocator talks to — it decides, per region, whether the backing pages are
// 4 KB or 2 MB, mirroring the paper's hugetlbfs-vs-anonymous-mmap choice.
//
// Regions also support *in-place promotion* of a 2 MB-aligned chunk of 4 KB
// pages to one huge page — the transparent-superpage mechanism of Navarro
// et al. that the paper's related work (§5) compares against and that
// bench/ablation_promotion evaluates as a baseline.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "mem/page_table.hpp"
#include "mem/phys_mem.hpp"
#include "support/types.hpp"

namespace lpomp::mem {

/// One mmap-style mapping.
struct Region {
  vaddr_t base = 0;
  std::size_t length = 0;  ///< rounded up to the page size of `kind`
  PageKind kind = PageKind::small4k;  ///< page size at map time
  std::string name;
};

class AddressSpace {
 public:
  /// Base of the small-page arena; regions grow upward from here.
  static constexpr vaddr_t kSmallArenaBase = 0x0000'1000'0000ULL;
  /// Base of the huge-page arena (disjoint so the two never interleave).
  static constexpr vaddr_t kLargeArenaBase = 0x0000'8000'0000ULL;

  /// `pm` backs both table nodes and (by default) data frames.
  explicit AddressSpace(PhysMem& pm);

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;
  ~AddressSpace();

  /// Maps `bytes` (rounded up to the page size of `kind`) and populates all
  /// pages eagerly — the paper preallocates and touches everything at
  /// startup. `source` supplies physical blocks; nullptr means the backing
  /// PhysMem buddy allocator. Throws std::runtime_error when physical memory
  /// or the source is exhausted.
  Region map_region(std::size_t bytes, PageKind kind, std::string name,
                    FrameSource* source = nullptr);

  /// Unmaps a region previously returned by map_region and returns its
  /// frames (including any promoted huge pages) to where they came from.
  void unmap_region(vaddr_t base);

  /// Promotes the 2 MB-aligned chunk at `chunk_base` — currently backed by
  /// 512 4 KB pages of one region — to a single huge page allocated from
  /// the buddy allocator. Returns false (leaving the mapping untouched)
  /// when no aligned 2 MB physical block is available. The caller models
  /// the data copy and TLB shootdown costs.
  bool promote(vaddr_t chunk_base);

  /// Page kind currently backing `vaddr` (must be mapped).
  PageKind kind_at(vaddr_t vaddr) const;

  /// Translates an address via a full page walk (no TLB; the TLB lives in
  /// the simulator). Returns present=false for unmapped addresses.
  WalkResult translate(vaddr_t vaddr) const { return table_.walk(vaddr); }

  /// Region containing `vaddr`, or nullptr.
  const Region* find_region(vaddr_t vaddr) const;

  const PageTable& page_table() const { return table_; }

  /// Sum of mapped bytes currently backed by this page kind (promotion
  /// moves bytes between kinds).
  std::size_t mapped_bytes(PageKind kind) const {
    return mapped_bytes_[static_cast<std::size_t>(kind)];
  }
  std::size_t mapped_bytes() const {
    return mapped_bytes_[0] + mapped_bytes_[1];
  }

  count_t promotions() const { return promotions_; }

  /// Base of the arena regions of `kind` grow from: the address the first
  /// map_region of that kind in a fresh space receives.
  static constexpr vaddr_t arena_base(PageKind kind) {
    switch (kind) {
      case PageKind::small4k: return kSmallArenaBase;
      case PageKind::large2m: return kLargeArenaBase;
      case PageKind::huge1g: break;
    }
    return vaddr_t{1} << 40;
  }

  std::vector<Region> regions() const;

 private:
  /// The frame backing one page of a region, and its kind.
  struct Slot {
    paddr_t block = 0;
    PageKind kind = PageKind::small4k;
  };
  struct RegionState {
    Region region;
    FrameSource* source = nullptr;  // original mapping source
    // One slot per page of region.kind, by page number. A promoted 2 MB
    // chunk of a 4 KB region sets all 512 of its slots to the huge frame
    // (kind large2m, from the PhysMem); a slot whose kind differs from the
    // region's is therefore always a promoted one.
    std::vector<Slot> slots;
  };

  static std::size_t order_of(PageKind kind) {
    return kind == PageKind::small4k ? 0 : PhysMem::kHugeOrder;
  }
  FrameSource* source_of(const RegionState& state, const Slot& slot) {
    return slot.kind == state.region.kind ? state.source : &pm_;
  }

  RegionState* find_state(vaddr_t vaddr);
  const RegionState* find_state(vaddr_t vaddr) const;

  PhysMem& pm_;
  PageTable table_;
  std::map<vaddr_t, RegionState> regions_;  // keyed by base
  // Indexed by PageKind. Layouts only ever use the first two arenas; the
  // huge1g slot exists so kind-indexed bookkeeping stays in bounds (the
  // paging-policy overlay produces huge1g *translations*, never mappings).
  vaddr_t next_base_[kPageKindCount] = {arena_base(PageKind::small4k),
                                        arena_base(PageKind::large2m),
                                        arena_base(PageKind::huge1g)};
  std::size_t mapped_bytes_[kPageKindCount] = {0, 0, 0};
  count_t promotions_ = 0;
};

}  // namespace lpomp::mem

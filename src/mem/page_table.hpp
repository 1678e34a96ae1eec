// x86-64-style radix page table (PML4 → PDPT → PD → PT with 9-bit indices),
// the paper's Figure 2 substrate. A 4 KB mapping is a leaf at the bottom
// level; a 2 MB mapping is a leaf one level up (a PD/PMD-level leaf), so a
// page walk for a huge page touches one fewer table — that difference, plus
// the TLB-reach difference, is the entire mechanism under study.
//
// Table nodes occupy real simulated frames from PhysMem, so page-table
// overhead is visible in footprint accounting, and the walk cost reported to
// the cost model equals the number of tables actually traversed. unmap()
// frees every interior node it leaves empty (never the root), so a
// long-lived table holds only nodes with at least one present entry.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/phys_mem.hpp"
#include "support/types.hpp"

namespace lpomp::mem {

/// Outcome of a page walk.
struct WalkResult {
  bool present = false;
  paddr_t paddr = 0;        ///< translated physical address (valid if present)
  PageKind kind = PageKind::small4k;
  unsigned levels_touched = 0;  ///< memory accesses the walk performed
  /// Physical address of the table entry read at each level — the hardware
  /// walker fetches these through the data-cache hierarchy, so neighbouring
  /// translations share cached PTE lines (one 64 B line maps 8 pages).
  paddr_t entry_addr[4] = {0, 0, 0, 0};
};

class PageTable {
 public:
  /// Standard x86-64 long mode: 4 levels of 9 bits over a 12-bit offset.
  static constexpr unsigned kLevels = 4;
  static constexpr unsigned kBitsPerLevel = 9;
  static constexpr std::size_t kEntriesPerNode = std::size_t{1} << kBitsPerLevel;

  /// `pm` supplies frames for table nodes; it must outlive the table.
  explicit PageTable(PhysMem& pm);
  ~PageTable();

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  /// Installs a translation. `vaddr` and `paddr` must be aligned to the page
  /// size of `kind`. Remapping an already-present page is a logic error.
  void map(vaddr_t vaddr, paddr_t paddr, PageKind kind);

  /// Removes a translation and frees the nodes it leaves empty, bottom up;
  /// returns false if none was present.
  bool unmap(vaddr_t vaddr);

  /// Bumped by every map() and by every unmap() that removes a
  /// translation. A walk remembered under one generation is the walk for
  /// as long as the generation is unchanged.
  std::uint64_t generation() const { return generation_; }

  /// Full page walk. levels_touched = 4 for a 4 KB page, 3 for a 2 MB page,
  /// or the depth reached when the walk faults.
  WalkResult walk(vaddr_t vaddr) const;

  /// Number of table nodes currently allocated (each occupies one 4 KB frame).
  std::size_t node_count() const { return live_nodes_; }

  /// Simulated bytes consumed by the table structure itself.
  std::size_t overhead_bytes() const { return live_nodes_ * kSmallPageSize; }

  /// Count of translations installed, by page kind.
  count_t mapped_pages(PageKind kind) const {
    return mapped_[static_cast<std::size_t>(kind)];
  }

 private:
  struct Entry {
    bool present = false;
    bool leaf = false;
    // For a leaf: physical page address. For an interior entry: index of
    // the child node.
    std::uint64_t value = 0;
  };
  /// frames_ value of a freed node slot, awaiting reuse.
  static constexpr paddr_t kFreeSlot = ~paddr_t{0};

  static unsigned index_at(vaddr_t vaddr, unsigned level) {
    // level 0 is the root (PML4): bits [47:39]; level 3 the PT: bits [20:12].
    const unsigned shift =
        kSmallPageShift + kBitsPerLevel * (kLevels - 1 - level);
    return static_cast<unsigned>((vaddr >> shift) & (kEntriesPerNode - 1));
  }

  /// Entry `index` of node `node`. The arena grows in new_node(), so a
  /// reference must not be held across that call.
  Entry& entry(std::size_t node, unsigned index) {
    return entries_[node * kEntriesPerNode + index];
  }
  const Entry& entry(std::size_t node, unsigned index) const {
    return entries_[node * kEntriesPerNode + index];
  }

  /// A node with no present entry, or nullopt when PhysMem has no frame.
  std::optional<std::size_t> new_node();

  /// Frees path[level], path[level - 1], ... while each holds no present
  /// entry, stopping below the root; path[l] is the level-l node on the way
  /// to `vaddr`. Each freed node's entry in its parent is cleared.
  void prune(vaddr_t vaddr, const std::size_t* path, unsigned level);

  PhysMem& pm_;
  // Every node's entries in one arena, node i at [i * 512, (i + 1) * 512);
  // node 0 is the root. frames_[i] is the simulated frame backing node i
  // and live_entries_[i] its present entries. Freed slots are reused.
  std::vector<Entry> entries_;
  std::vector<paddr_t> frames_;
  std::vector<std::uint16_t> live_entries_;
  std::vector<std::size_t> free_slots_;
  std::size_t live_nodes_ = 0;
  count_t mapped_[kPageKindCount] = {0, 0, 0};
  std::uint64_t generation_ = 0;

 public:
  /// Depth of the leaf entry for this page kind, counting the root as level
  /// 0: 3 (PT) for 4 KB, 2 (PD) for 2 MB, 1 (PDPT/PUD) for 1 GiB. Public so
  /// the paging-policy overlay can reason about effective walk depths.
  static unsigned leaf_level(PageKind kind) {
    switch (kind) {
      case PageKind::small4k:
        return kLevels - 1;
      case PageKind::large2m:
        return kLevels - 2;
      case PageKind::huge1g:
        return kLevels - 3;
    }
    return kLevels - 1;
  }
};

}  // namespace lpomp::mem

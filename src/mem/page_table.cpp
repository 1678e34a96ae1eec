#include "mem/page_table.hpp"

#include <stdexcept>

namespace lpomp::mem {

PageTable::PageTable(PhysMem& pm) : pm_(pm) {
  const std::size_t root = new_node();
  LPOMP_CHECK(root == 0);
}

PageTable::~PageTable() {
  // Return every live node's frame to the physical allocator.
  for (paddr_t frame : frames_) {
    if (frame != kFreeSlot) pm_.return_block(frame, 0);
  }
}

std::size_t PageTable::new_node() {
  const auto frame = pm_.alloc_small_frame();
  if (!frame) {
    throw std::runtime_error("PageTable: out of physical memory for table node");
  }
  std::size_t index;
  if (!free_slots_.empty()) {
    // A slot is freed only when none of its entries is present, and
    // unmap() resets an entry to Entry{}, so its entries are all empty.
    index = free_slots_.back();
    free_slots_.pop_back();
    frames_[index] = *frame;
  } else {
    index = frames_.size();
    entries_.resize(entries_.size() + kEntriesPerNode);
    frames_.push_back(*frame);
  }
  ++live_nodes_;
  return index;
}

void PageTable::map(vaddr_t vaddr, paddr_t paddr, PageKind kind) {
  LPOMP_CHECK_MSG(vaddr % page_size(kind) == 0, "vaddr not page-aligned");
  LPOMP_CHECK_MSG(paddr % page_size(kind) == 0, "paddr not page-aligned");

  const unsigned leaf = leaf_level(kind);
  std::size_t node = 0;
  for (unsigned level = 0; level < leaf; ++level) {
    const unsigned index = index_at(vaddr, level);
    if (!entry(node, index).present) {
      const std::size_t child = new_node();  // may grow the arena
      entry(node, index) = Entry{true, false, child};
    }
    const Entry& e = entry(node, index);
    LPOMP_CHECK_MSG(!e.leaf,
                    "mapping would split an existing huge-page leaf");
    node = static_cast<std::size_t>(e.value);
  }
  Entry& e = entry(node, index_at(vaddr, leaf));
  if (e.present && !e.leaf && kind == PageKind::large2m) {
    // A huge leaf can replace an *empty* page-table node left behind by
    // unmapping all 512 small pages of the chunk (superpage promotion);
    // the node's frame is reclaimed.
    const auto child = static_cast<std::size_t>(e.value);
    for (unsigned i = 0; i < kEntriesPerNode; ++i) {
      LPOMP_CHECK_MSG(!entry(child, i).present,
                      "huge mapping would shadow live small pages");
    }
    pm_.return_block(frames_[child], 0);
    frames_[child] = kFreeSlot;
    free_slots_.push_back(child);
    --live_nodes_;
    e = Entry{};
  }
  LPOMP_CHECK_MSG(!e.present, "remapping an already-present page");
  e.present = true;
  e.leaf = true;
  e.value = paddr;
  ++mapped_[static_cast<std::size_t>(kind)];
}

bool PageTable::unmap(vaddr_t vaddr) {
  std::size_t node = 0;
  for (unsigned level = 0; level < kLevels; ++level) {
    Entry& e = entry(node, index_at(vaddr, level));
    if (!e.present) return false;
    if (e.leaf) {
      const PageKind kind =
          level == kLevels - 1 ? PageKind::small4k : PageKind::large2m;
      LPOMP_CHECK(level == leaf_level(kind));
      e = Entry{};
      --mapped_[static_cast<std::size_t>(kind)];
      return true;
    }
    node = static_cast<std::size_t>(e.value);
  }
  return false;
}

WalkResult PageTable::walk(vaddr_t vaddr) const {
  WalkResult result;
  std::size_t node = 0;
  for (unsigned level = 0; level < kLevels; ++level) {
    const unsigned index = index_at(vaddr, level);
    result.entry_addr[result.levels_touched] =
        frames_[node] + static_cast<paddr_t>(index) * 8;
    ++result.levels_touched;  // reading this level's entry is a memory access
    const Entry& e = entry(node, index);
    if (!e.present) return result;  // fault: present stays false
    if (e.leaf) {
      result.present = true;
      result.kind =
          level == kLevels - 1 ? PageKind::small4k : PageKind::large2m;
      const std::size_t offset_bits = page_shift(result.kind);
      result.paddr = e.value | (vaddr & ((vaddr_t{1} << offset_bits) - 1));
      return result;
    }
    node = static_cast<std::size_t>(e.value);
  }
  return result;  // unreachable in a well-formed table
}

}  // namespace lpomp::mem

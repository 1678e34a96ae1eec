#include "mem/page_table.hpp"

#include <stdexcept>

namespace lpomp::mem {

namespace {

[[noreturn]] void throw_no_node_frame() {
  throw std::runtime_error("PageTable: out of physical memory for table node");
}

}  // namespace

PageTable::PageTable(PhysMem& pm) : pm_(pm) {
  const auto root = new_node();
  if (!root) throw_no_node_frame();
  LPOMP_CHECK(*root == 0);
}

PageTable::~PageTable() {
  // Return every live node's frame to the physical allocator.
  for (paddr_t frame : frames_) {
    if (frame != kFreeSlot) pm_.return_block(frame, 0);
  }
}

std::optional<std::size_t> PageTable::new_node() {
  const auto frame = pm_.alloc_small_frame();
  if (!frame) return std::nullopt;
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
    live_entries_.push_back(0);
  }
  ++live_nodes_;
  return index;
}

void PageTable::prune(vaddr_t vaddr, const std::size_t* path,
                      unsigned level) {
  for (; level > 0 && live_entries_[path[level]] == 0; --level) {
    const std::size_t node = path[level];
    pm_.return_block(frames_[node], 0);
    frames_[node] = kFreeSlot;
    free_slots_.push_back(node);
    --live_nodes_;
    entry(path[level - 1], index_at(vaddr, level - 1)) = Entry{};
    --live_entries_[path[level - 1]];
  }
}

void PageTable::map(vaddr_t vaddr, paddr_t paddr, PageKind kind) {
  LPOMP_CHECK_MSG(vaddr % page_size(kind) == 0, "vaddr not page-aligned");
  LPOMP_CHECK_MSG(paddr % page_size(kind) == 0, "paddr not page-aligned");

  const unsigned leaf = leaf_level(kind);
  std::size_t path[kLevels] = {0, 0, 0, 0};
  for (unsigned level = 0; level < leaf; ++level) {
    const std::size_t node = path[level];
    const unsigned index = index_at(vaddr, level);
    if (!entry(node, index).present) {
      const auto child = new_node();  // may grow the arena
      if (!child) {
        // Leave the table as it was: drop the empty nodes made above.
        prune(vaddr, path, level);
        throw_no_node_frame();
      }
      entry(node, index) = Entry{true, false, *child};
      ++live_entries_[node];
    }
    const Entry& e = entry(node, index);
    LPOMP_CHECK_MSG(!e.leaf,
                    "mapping would split an existing huge-page leaf");
    path[level + 1] = static_cast<std::size_t>(e.value);
  }
  Entry& e = entry(path[leaf], index_at(vaddr, leaf));
  // Empty nodes are freed by unmap(), so an interior entry here always
  // leads to live small pages.
  LPOMP_CHECK_MSG(!e.present || e.leaf,
                  "huge mapping would shadow live small pages");
  LPOMP_CHECK_MSG(!e.present, "remapping an already-present page");
  e = Entry{true, true, paddr};
  ++live_entries_[path[leaf]];
  ++mapped_[static_cast<std::size_t>(kind)];
  ++generation_;
}

bool PageTable::unmap(vaddr_t vaddr) {
  std::size_t path[kLevels];
  std::size_t node = 0;
  for (unsigned level = 0; level < kLevels; ++level) {
    path[level] = node;
    Entry& e = entry(node, index_at(vaddr, level));
    if (!e.present) return false;
    if (e.leaf) {
      const PageKind kind =
          level == kLevels - 1 ? PageKind::small4k : PageKind::large2m;
      LPOMP_CHECK(level == leaf_level(kind));
      e = Entry{};
      --live_entries_[node];
      --mapped_[static_cast<std::size_t>(kind)];
      ++generation_;
      prune(vaddr, path, level);
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

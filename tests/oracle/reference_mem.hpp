// Tree-based reference substrate — the differential oracle for src/mem's
// flat buddy bitmaps, page-table arena and per-region page vectors.
//
// This is the obvious implementation: one std::set free list per buddy
// order plus a set of live blocks, one heap-allocated entry vector per
// page-table node, and a std::map of pages per region. test_mem_differential
// drives random operation sequences through both and requires identical
// addresses, failures, statistics and walk results.
//
// Page-table nodes are freed as soon as they hold no present entry: unmap()
// frees the nodes it empties, bottom up and never the root, by scanning
// each node on its path. When a node cannot be allocated, map() leaves its
// entry non-present and frees the empty nodes it made on the way, and
// map_region() rolls the partial region back, exactly as it does when a
// data frame cannot be taken.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/page_table.hpp"
#include "mem/phys_mem.hpp"
#include "support/error.hpp"
#include "support/types.hpp"

namespace lpomp::oracle {

/// Buddy allocator over 4 KB frames with one ordered set per order.
class RefPhysMem final : public mem::FrameSource {
 public:
  static constexpr std::size_t kMaxOrder = mem::PhysMem::kMaxOrder;

  explicit RefPhysMem(std::size_t total_bytes)
      : total_bytes_(total_bytes), free_bytes_(total_bytes) {
    const std::size_t max_block = block_bytes(kMaxOrder);
    LPOMP_CHECK(total_bytes > 0 && total_bytes % max_block == 0);
    for (paddr_t addr = 0; addr < total_bytes; addr += max_block) {
      free_lists_[kMaxOrder].insert(addr);
    }
  }

  std::optional<paddr_t> take_block(std::size_t order) override {
    LPOMP_CHECK(order <= kMaxOrder);
    ++stats_.allocs;
    stats_.last_alloc_work = 0;
    std::size_t have = order;
    while (have <= kMaxOrder && free_lists_[have].empty()) {
      ++have;
      ++stats_.last_alloc_work;
    }
    if (have > kMaxOrder) {
      ++stats_.failed_allocs;
      stats_.total_alloc_work += stats_.last_alloc_work;
      return std::nullopt;
    }
    const paddr_t addr = *free_lists_[have].begin();
    free_lists_[have].erase(free_lists_[have].begin());
    ++stats_.last_alloc_work;
    while (have > order) {
      --have;
      free_lists_[have].insert(addr + block_bytes(have));
      ++stats_.splits;
      ++stats_.last_alloc_work;
    }
    free_bytes_ -= block_bytes(order);
    stats_.total_alloc_work += stats_.last_alloc_work;
    live_.emplace(addr, order);
    return addr;
  }

  void return_block(paddr_t addr, std::size_t order) override {
    LPOMP_CHECK(order <= kMaxOrder);
    LPOMP_CHECK(addr % block_bytes(order) == 0);
    LPOMP_CHECK(addr + block_bytes(order) <= total_bytes_);
    LPOMP_CHECK(live_.erase({addr, order}) == 1);
    ++stats_.frees;
    free_bytes_ += block_bytes(order);
    while (order < kMaxOrder) {
      const paddr_t buddy = addr ^ static_cast<paddr_t>(block_bytes(order));
      auto it = free_lists_[order].find(buddy);
      if (it == free_lists_[order].end()) break;
      free_lists_[order].erase(it);
      addr = std::min(addr, buddy);
      ++order;
      ++stats_.coalesces;
    }
    LPOMP_CHECK(free_lists_[order].insert(addr).second);
  }

  std::optional<paddr_t> alloc_huge_frame() {
    return take_block(mem::PhysMem::kHugeOrder);
  }

  std::size_t free_bytes() const { return free_bytes_; }
  std::size_t free_blocks(std::size_t order) const {
    return free_lists_[order].size();
  }
  std::optional<std::size_t> largest_free_order() const {
    for (std::size_t order = kMaxOrder + 1; order-- > 0;) {
      if (!free_lists_[order].empty()) return order;
    }
    return std::nullopt;
  }
  const mem::PhysMem::Stats& stats() const { return stats_; }

 private:
  static std::size_t block_bytes(std::size_t order) {
    return kSmallPageSize << order;
  }

  std::size_t total_bytes_;
  std::size_t free_bytes_;
  std::array<std::set<paddr_t>, kMaxOrder + 1> free_lists_;
  std::set<std::pair<paddr_t, std::size_t>> live_;
  mem::PhysMem::Stats stats_;
};

/// Four-level radix table; every node owns its own entry vector.
class RefPageTable {
 public:
  static constexpr unsigned kLevels = mem::PageTable::kLevels;
  static constexpr unsigned kBitsPerLevel = mem::PageTable::kBitsPerLevel;
  static constexpr std::size_t kEntries = mem::PageTable::kEntriesPerNode;

  explicit RefPageTable(RefPhysMem& pm) : pm_(pm) { new_node(); }
  ~RefPageTable() {
    for (const Node& n : nodes_) {
      if (!n.entries.empty()) pm_.return_block(n.frame, 0);
    }
  }
  RefPageTable(const RefPageTable&) = delete;
  RefPageTable& operator=(const RefPageTable&) = delete;

  void map(vaddr_t vaddr, paddr_t paddr, PageKind kind) {
    const unsigned leaf = mem::PageTable::leaf_level(kind);
    std::vector<std::size_t> path = {0};
    for (unsigned level = 0; level < leaf; ++level) {
      const unsigned index = index_at(vaddr, level);
      if (!nodes_[path.back()].entries[index].present) {
        std::size_t child;
        try {
          child = new_node();
        } catch (const std::runtime_error&) {
          free_empty(vaddr, path);
          throw;
        }
        nodes_[path.back()].entries[index] = Entry{true, false, child};
      }
      const Entry& e = nodes_[path.back()].entries[index];
      LPOMP_CHECK(!e.leaf);
      path.push_back(static_cast<std::size_t>(e.value));
    }
    Entry& e = nodes_[path.back()].entries[index_at(vaddr, leaf)];
    LPOMP_CHECK(!e.present);
    e = Entry{true, true, paddr};
    ++mapped_[static_cast<std::size_t>(kind)];
  }

  bool unmap(vaddr_t vaddr) {
    std::vector<std::size_t> path = {0};
    for (unsigned level = 0; level < kLevels; ++level) {
      Entry& e = nodes_[path.back()].entries[index_at(vaddr, level)];
      if (!e.present) return false;
      if (e.leaf) {
        const PageKind kind =
            level == kLevels - 1 ? PageKind::small4k : PageKind::large2m;
        e = Entry{};
        --mapped_[static_cast<std::size_t>(kind)];
        free_empty(vaddr, path);
        return true;
      }
      path.push_back(static_cast<std::size_t>(e.value));
    }
    return false;
  }

  mem::WalkResult walk(vaddr_t vaddr) const {
    mem::WalkResult result;
    std::size_t node = 0;
    for (unsigned level = 0; level < kLevels; ++level) {
      const unsigned index = index_at(vaddr, level);
      result.entry_addr[result.levels_touched] =
          nodes_[node].frame + static_cast<paddr_t>(index) * 8;
      ++result.levels_touched;
      const Entry& e = nodes_[node].entries[index];
      if (!e.present) return result;
      if (e.leaf) {
        result.present = true;
        result.kind =
            level == kLevels - 1 ? PageKind::small4k : PageKind::large2m;
        result.paddr =
            e.value | (vaddr & ((vaddr_t{1} << page_shift(result.kind)) - 1));
        return result;
      }
      node = static_cast<std::size_t>(e.value);
    }
    return result;
  }

  std::size_t node_count() const { return live_nodes_; }
  std::size_t overhead_bytes() const { return live_nodes_ * kSmallPageSize; }
  count_t mapped_pages(PageKind kind) const {
    return mapped_[static_cast<std::size_t>(kind)];
  }

 private:
  struct Entry {
    bool present = false;
    bool leaf = false;
    std::uint64_t value = 0;
  };
  struct Node {
    std::vector<Entry> entries;
    paddr_t frame = 0;
    Node() : entries(kEntries) {}
  };

  static unsigned index_at(vaddr_t vaddr, unsigned level) {
    const unsigned shift =
        kSmallPageShift + kBitsPerLevel * (kLevels - 1 - level);
    return static_cast<unsigned>((vaddr >> shift) & (kEntries - 1));
  }

  static bool no_present_entry(const Node& n) {
    return std::none_of(n.entries.begin(), n.entries.end(),
                        [](const Entry& e) { return e.present; });
  }

  /// Frees the deepest node of `path` (the nodes from the root towards
  /// `vaddr`) while it holds no present entry, then its parent, and so on,
  /// never the root; clears each freed node's entry in its parent.
  void free_empty(vaddr_t vaddr, std::vector<std::size_t>& path) {
    while (path.size() > 1 && no_present_entry(nodes_[path.back()])) {
      const std::size_t node = path.back();
      path.pop_back();
      pm_.return_block(nodes_[node].frame, 0);
      nodes_[node].entries.clear();
      free_slots_.push_back(node);
      --live_nodes_;
      const auto parent_level = static_cast<unsigned>(path.size() - 1);
      nodes_[path.back()].entries[index_at(vaddr, parent_level)] = Entry{};
    }
  }

  std::size_t new_node() {
    const auto frame = pm_.take_block(0);
    if (!frame) throw std::runtime_error("RefPageTable: out of frames");
    std::size_t index;
    if (!free_slots_.empty()) {
      index = free_slots_.back();
      free_slots_.pop_back();
      nodes_[index] = Node{};
    } else {
      index = nodes_.size();
      nodes_.emplace_back();
    }
    nodes_[index].frame = *frame;
    ++live_nodes_;
    return index;
  }

  RefPhysMem& pm_;
  std::vector<Node> nodes_;
  std::vector<std::size_t> free_slots_;
  std::size_t live_nodes_ = 0;
  count_t mapped_[kPageKindCount] = {0, 0, 0};
};

/// Regions whose pages are a std::map keyed by page base.
class RefAddressSpace {
 public:
  explicit RefAddressSpace(RefPhysMem& pm) : pm_(pm), table_(pm) {}
  ~RefAddressSpace() {
    while (!regions_.empty()) unmap_region(regions_.begin()->first);
  }
  RefAddressSpace(const RefAddressSpace&) = delete;
  RefAddressSpace& operator=(const RefAddressSpace&) = delete;

  /// Maps from the buddy allocator; throws std::runtime_error on exhaustion
  /// after rolling back, like mem::AddressSpace::map_region.
  mem::Region map_region(std::size_t bytes, PageKind kind, std::string name) {
    const std::size_t psize = page_size(kind);
    const std::size_t length = (bytes + psize - 1) / psize * psize;
    const std::size_t order = order_of(kind);
    RegionState state;
    state.region = mem::Region{next_base_[static_cast<std::size_t>(kind)],
                               length, kind, std::move(name)};
    const auto roll_back = [&] {
      for (const auto& [va, mapping] : state.pages) {
        table_.unmap(va);
        pm_.return_block(mapping.block, order);
      }
    };
    for (std::size_t i = 0; i < length / psize; ++i) {
      const vaddr_t va = state.region.base + i * psize;
      auto block = pm_.take_block(order);
      if (!block) {
        roll_back();
        throw std::runtime_error("RefAddressSpace: exhausted");
      }
      try {
        table_.map(va, *block, kind);
      } catch (const std::runtime_error&) {
        pm_.return_block(*block, order);
        roll_back();
        throw;
      }
      state.pages.emplace(va, PageMapping{*block, kind});
    }
    next_base_[static_cast<std::size_t>(kind)] += length;
    mapped_bytes_[static_cast<std::size_t>(kind)] += length;
    const mem::Region result = state.region;
    regions_.emplace(result.base, std::move(state));
    return result;
  }

  void unmap_region(vaddr_t base) {
    auto it = regions_.find(base);
    LPOMP_CHECK(it != regions_.end());
    for (const auto& [va, mapping] : it->second.pages) {
      LPOMP_CHECK(table_.unmap(va));
      pm_.return_block(mapping.block, order_of(mapping.kind));
      mapped_bytes_[static_cast<std::size_t>(mapping.kind)] -=
          page_size(mapping.kind);
    }
    regions_.erase(it);
  }

  bool promote(vaddr_t chunk_base) {
    RegionState* state = find_state(chunk_base);
    LPOMP_CHECK(state != nullptr);
    constexpr std::size_t kPagesPerChunk = kLargePageSize / kSmallPageSize;
    for (std::size_t i = 0; i < kPagesPerChunk; ++i) {
      auto it = state->pages.find(chunk_base + i * kSmallPageSize);
      LPOMP_CHECK(it != state->pages.end() &&
                  it->second.kind == PageKind::small4k);
    }
    auto huge = pm_.alloc_huge_frame();
    if (!huge) return false;
    for (std::size_t i = 0; i < kPagesPerChunk; ++i) {
      const vaddr_t va = chunk_base + i * kSmallPageSize;
      auto it = state->pages.find(va);
      table_.unmap(va);
      pm_.return_block(it->second.block, 0);
      state->pages.erase(it);
    }
    table_.map(chunk_base, *huge, PageKind::large2m);
    state->pages.emplace(chunk_base, PageMapping{*huge, PageKind::large2m});
    mapped_bytes_[static_cast<std::size_t>(PageKind::small4k)] -=
        kLargePageSize;
    mapped_bytes_[static_cast<std::size_t>(PageKind::large2m)] +=
        kLargePageSize;
    ++promotions_;
    return true;
  }

  PageKind kind_at(vaddr_t vaddr) const {
    const RegionState* state = find_state(vaddr);
    LPOMP_CHECK(state != nullptr);
    auto it = state->pages.find(vaddr & ~(vaddr_t{kLargePageSize} - 1));
    if (it != state->pages.end() && it->second.kind == PageKind::large2m) {
      return PageKind::large2m;
    }
    it = state->pages.find(vaddr & ~(vaddr_t{kSmallPageSize} - 1));
    LPOMP_CHECK(it != state->pages.end());
    return it->second.kind;
  }

  mem::WalkResult translate(vaddr_t vaddr) const { return table_.walk(vaddr); }
  const RefPageTable& page_table() const { return table_; }
  std::size_t mapped_bytes(PageKind kind) const {
    return mapped_bytes_[static_cast<std::size_t>(kind)];
  }
  count_t promotions() const { return promotions_; }

 private:
  struct PageMapping {
    paddr_t block = 0;
    PageKind kind = PageKind::small4k;
  };
  struct RegionState {
    mem::Region region;
    std::map<vaddr_t, PageMapping> pages;
  };

  static std::size_t order_of(PageKind kind) {
    return kind == PageKind::small4k ? 0 : mem::PhysMem::kHugeOrder;
  }

  const RegionState* find_state(vaddr_t vaddr) const {
    auto it = regions_.upper_bound(vaddr);
    if (it == regions_.begin()) return nullptr;
    --it;
    const RegionState& s = it->second;
    return vaddr < s.region.base + s.region.length ? &s : nullptr;
  }
  RegionState* find_state(vaddr_t vaddr) {
    return const_cast<RegionState*>(
        static_cast<const RefAddressSpace*>(this)->find_state(vaddr));
  }

  RefPhysMem& pm_;
  RefPageTable table_;
  std::map<vaddr_t, RegionState> regions_;
  vaddr_t next_base_[kPageKindCount] = {mem::AddressSpace::kSmallArenaBase,
                                        mem::AddressSpace::kLargeArenaBase,
                                        vaddr_t{1} << 40};
  std::size_t mapped_bytes_[kPageKindCount] = {0, 0, 0};
  count_t promotions_ = 0;
};

}  // namespace lpomp::oracle

// Simulated physical memory: a buddy allocator over 4 KB frames.
//
// The buddy system is what gives huge pages their cost structure in a real
// kernel: a 2 MB allocation needs 512 contiguous, aligned frames, which a
// fragmented free list may be unable to supply — exactly the failure mode
// that motivates the paper's startup-time preallocation strategy (§3.3).
// Allocation "work" (list scans, splits, coalesces) is counted so the
// ablation bench can compare preallocation against on-demand allocation.
//
// Each order's free list is a bitmap over that order's blocks with a cursor
// at its lowest possibly non-empty word, so taking the lowest free block,
// testing a buddy and freeing are O(1) word operations, with no allocation
// per frame.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "support/error.hpp"
#include "support/types.hpp"

namespace lpomp::mem {

/// Anything that can hand out aligned physical blocks. PhysMem is the
/// primary source; HugeTlbFs layers a preallocated pool on top.
class FrameSource {
 public:
  virtual ~FrameSource() = default;

  /// Allocates a block of (4 KB << order) bytes, aligned to its own size.
  /// Returns std::nullopt when no such block exists (fragmentation).
  virtual std::optional<paddr_t> take_block(std::size_t order) = 0;

  /// Returns a block previously obtained from take_block.
  virtual void return_block(paddr_t addr, std::size_t order) = 0;
};

class PhysMem final : public FrameSource {
 public:
  /// Largest buddy order: 4 KB << 10 = 4 MB blocks.
  static constexpr std::size_t kMaxOrder = 10;
  /// Order of a 2 MB huge page (512 frames).
  static constexpr std::size_t kHugeOrder = kLargePageShift - kSmallPageShift;

  /// Creates `total_bytes` of simulated physical memory. Must be a positive
  /// multiple of the largest block size so the initial free list is uniform.
  explicit PhysMem(std::size_t total_bytes);

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  std::optional<paddr_t> take_block(std::size_t order) override;
  void return_block(paddr_t addr, std::size_t order) override;

  /// Convenience wrappers for the two page sizes under study.
  std::optional<paddr_t> alloc_small_frame() { return take_block(0); }
  std::optional<paddr_t> alloc_huge_frame() { return take_block(kHugeOrder); }

  std::size_t total_bytes() const { return total_bytes_; }
  std::size_t free_bytes() const { return free_bytes_; }

  /// Largest order with a free block, or nullopt when memory is exhausted.
  /// An answer < kHugeOrder means on-demand huge-page allocation would fail.
  std::optional<std::size_t> largest_free_order() const;

  /// Number of free blocks at exactly this order.
  std::size_t free_blocks(std::size_t order) const {
    LPOMP_CHECK(order <= kMaxOrder);
    return free_lists_[order].count;
  }

  // --- allocation-effort accounting, consumed by bench/ablation_prealloc ---
  struct Stats {
    count_t allocs = 0;
    count_t frees = 0;
    count_t failed_allocs = 0;
    count_t splits = 0;     ///< block split into two buddies
    count_t coalesces = 0;  ///< buddies merged on free
    /// Work units of the most recent take_block call: one unit per free-list
    /// probe plus one per split. Proxy for allocation latency.
    count_t last_alloc_work = 0;
    count_t total_alloc_work = 0;
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  std::size_t block_bytes(std::size_t order) const {
    return kSmallPageSize << order;
  }
  /// The free blocks of one order: bit i set = block i (address
  /// i << (12 + order)) is free. No word below `first_word` has a bit set,
  /// so the lowest free block is found from there.
  struct FreeList {
    std::vector<std::uint64_t> words;
    std::size_t first_word = 0;
    std::size_t count = 0;

    bool contains(std::size_t block) const {
      return (words[block >> 6] >> (block & 63)) & 1;
    }
    void insert(std::size_t block);
    void erase(std::size_t block);
    std::size_t take_lowest();
  };

  std::size_t total_bytes_;
  std::size_t free_bytes_;
  // One free list per order, handed out lowest address first (like Linux's
  // buddy allocator), which keeps layouts deterministic.
  std::array<FreeList, kMaxOrder + 1> free_lists_;
  // Outstanding allocations, for double-free/mismatched-free detection:
  // order + 1 at the first frame of each allocated block, 0 elsewhere.
  std::vector<std::uint8_t> live_order_;
  Stats stats_;
};

}  // namespace lpomp::mem

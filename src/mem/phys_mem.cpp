#include "mem/phys_mem.hpp"

#include <bit>

namespace lpomp::mem {

void PhysMem::FreeList::insert(std::size_t block) {
  const std::size_t word = block >> 6;
  words[word] |= std::uint64_t{1} << (block & 63);
  if (word < first_word) first_word = word;
  ++count;
}

void PhysMem::FreeList::erase(std::size_t block) {
  words[block >> 6] &= ~(std::uint64_t{1} << (block & 63));
  --count;
}

std::size_t PhysMem::FreeList::take_lowest() {
  while (words[first_word] == 0) ++first_word;
  const std::size_t block =
      first_word * 64 +
      static_cast<std::size_t>(std::countr_zero(words[first_word]));
  erase(block);
  return block;
}

PhysMem::PhysMem(std::size_t total_bytes)
    : total_bytes_(total_bytes), free_bytes_(total_bytes) {
  const std::size_t max_block = block_bytes(kMaxOrder);
  LPOMP_CHECK_MSG(total_bytes > 0 && total_bytes % max_block == 0,
                  "physical memory must be a multiple of the 4 MB max block");
  const std::size_t frames = total_bytes / kSmallPageSize;
  for (std::size_t order = 0; order <= kMaxOrder; ++order) {
    free_lists_[order].words.assign(((frames >> order) + 63) / 64, 0);
  }
  for (std::size_t block = 0; block < (frames >> kMaxOrder); ++block) {
    free_lists_[kMaxOrder].insert(block);
  }
  live_order_.assign(frames, 0);
}

std::optional<paddr_t> PhysMem::take_block(std::size_t order) {
  LPOMP_CHECK(order <= kMaxOrder);
  ++stats_.allocs;
  stats_.last_alloc_work = 0;

  // Find the smallest order >= requested with a free block.
  std::size_t have = order;
  while (have <= kMaxOrder && free_lists_[have].count == 0) {
    ++have;
    ++stats_.last_alloc_work;
  }
  if (have > kMaxOrder) {
    ++stats_.failed_allocs;
    stats_.total_alloc_work += stats_.last_alloc_work;
    return std::nullopt;
  }

  // Take the lowest-address block and split it down to the requested order.
  const paddr_t addr = static_cast<paddr_t>(free_lists_[have].take_lowest())
                       << (kSmallPageShift + have);
  ++stats_.last_alloc_work;
  while (have > order) {
    --have;
    // Keep the low half, free the high half (the buddy).
    free_lists_[have].insert(((addr >> kSmallPageShift) >> have) + 1);
    ++stats_.splits;
    ++stats_.last_alloc_work;
  }

  free_bytes_ -= block_bytes(order);
  stats_.total_alloc_work += stats_.last_alloc_work;
  live_order_[addr >> kSmallPageShift] = static_cast<std::uint8_t>(order + 1);
  return addr;
}

void PhysMem::return_block(paddr_t addr, std::size_t order) {
  LPOMP_CHECK(order <= kMaxOrder);
  LPOMP_CHECK_MSG(addr % block_bytes(order) == 0, "misaligned free");
  LPOMP_CHECK_MSG(addr + block_bytes(order) <= total_bytes_, "free out of range");
  std::uint8_t& live = live_order_[addr >> kSmallPageShift];
  LPOMP_CHECK_MSG(live == order + 1,
                  "free of a block that is not allocated (double free or "
                  "wrong order)");
  live = 0;
  ++stats_.frees;
  free_bytes_ += block_bytes(order);

  // Coalesce with the buddy as long as it is also free.
  std::size_t block = (addr >> kSmallPageShift) >> order;
  while (order < kMaxOrder && free_lists_[order].contains(block ^ 1)) {
    free_lists_[order].erase(block ^ 1);
    block >>= 1;
    ++order;
    ++stats_.coalesces;
  }
  LPOMP_CHECK_MSG(!free_lists_[order].contains(block),
                  "double free of physical block");
  free_lists_[order].insert(block);
}

std::optional<std::size_t> PhysMem::largest_free_order() const {
  for (std::size_t order = kMaxOrder + 1; order-- > 0;) {
    if (free_lists_[order].count != 0) return order;
  }
  return std::nullopt;
}

}  // namespace lpomp::mem

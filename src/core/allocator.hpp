// The modified runtime's shared-memory allocator (§3.3).
//
// Omni translates every global array into a pointer allocated from an
// internal allocator that carves a single memory-mapped region shared by
// all processes of the node. The paper's modification is *where that region
// comes from*: a file on hugetlbfs (2 MB pages, preallocated at startup) or
// an ordinary small-page mapping.
//
// SharedAllocator reproduces that design: one region, mapped eagerly at
// runtime startup with the chosen page kind, bump-allocated and never freed
// piecemeal (Omni/SCASH allocates global and dynamic memory at process
// startup — preallocation is what makes the hugetlbfs approach practical).
//
// Each allocation pairs a *host* buffer (real bytes the application
// computes on) with a *simulated* address range (what the machine simulator
// sees), at identical offsets, so simulated addresses preserve the exact
// layout the allocator produced.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "support/types.hpp"

namespace lpomp::core {

class SharedAllocator {
 public:
  /// Maps `pool_bytes` (rounded up to the page size of `kind`) eagerly from
  /// `source` (nullptr → the space's physical allocator; pass the HugeTlbFs
  /// to draw from the preallocated huge-page pool). Throws when the backing
  /// cannot be established — at startup, exactly where the paper wants the
  /// failure to happen.
  SharedAllocator(mem::AddressSpace& space, mem::FrameSource* source,
                  PageKind kind, std::size_t pool_bytes, std::string name);
  ~SharedAllocator();

  SharedAllocator(const SharedAllocator&) = delete;
  SharedAllocator& operator=(const SharedAllocator&) = delete;

  struct Block {
    std::byte* host = nullptr;  ///< real backing bytes
    vaddr_t sim_base = 0;       ///< simulated virtual address of host[0]
    std::size_t bytes = 0;
    PageKind kind = PageKind::small4k;
  };

  /// Carves `bytes` (aligned to `align`, which must be a power of two) from
  /// the pool. Throws std::runtime_error when the pool is exhausted.
  Block allocate(std::size_t bytes, std::size_t align = 64,
                 const std::string& label = {});

  PageKind page_kind() const { return kind_; }
  std::size_t capacity() const { return pool_bytes_; }
  std::size_t used() const { return used_; }
  std::size_t allocation_count() const { return labels_.size(); }
  vaddr_t region_base() const { return region_.base; }

  /// Labels of everything allocated so far, in order (a map of the shared
  /// image, like Omni's allocator bookkeeping).
  const std::vector<std::pair<std::string, std::size_t>>& allocations() const {
    return labels_;
  }

 private:
  mem::AddressSpace& space_;
  PageKind kind_;
  std::size_t pool_bytes_;
  mem::Region region_;
  struct FreeDeleter {
    void operator()(std::byte* p) const { std::free(p); }
  };
  /// The "memory-mapped file" image: calloc'd, so it reads all-zero while
  /// only the pages the kernels actually write get faulted in.
  std::unique_ptr<std::byte[], FreeDeleter> host_;
  std::size_t used_ = 0;
  std::vector<std::pair<std::string, std::size_t>> labels_;
};

}  // namespace lpomp::core

// Differential tests for the simulated memory substrate: the flat buddy
// bitmaps, page-table arena and per-region page vectors of src/mem against
// the tree-based reference in tests/oracle/reference_mem.hpp. Random
// operation sequences, exhaustion and rejected frees included, must give
// identical addresses, failures, statistics and page walks.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "mem/address_space.hpp"
#include "mem/phys_mem.hpp"
#include "oracle/reference_mem.hpp"
#include "support/rng.hpp"

namespace lpomp {
namespace {

using mem::PhysMem;

::testing::AssertionResult same_phys(const PhysMem& pm,
                                     const oracle::RefPhysMem& ref) {
  std::ostringstream os;
  if (pm.free_bytes() != ref.free_bytes()) {
    os << " free_bytes " << pm.free_bytes() << " vs " << ref.free_bytes();
  }
  if (pm.largest_free_order() != ref.largest_free_order()) {
    os << " largest_free_order differs";
  }
  for (std::size_t order = 0; order <= PhysMem::kMaxOrder; ++order) {
    if (pm.free_blocks(order) != ref.free_blocks(order)) {
      os << " free_blocks(" << order << ") " << pm.free_blocks(order)
         << " vs " << ref.free_blocks(order);
    }
  }
  const PhysMem::Stats& a = pm.stats();
  const PhysMem::Stats& b = ref.stats();
#define LPOMP_SAME_STAT(field) \
  if (a.field != b.field) os << " " #field " " << a.field << " vs " << b.field;
  LPOMP_SAME_STAT(allocs)
  LPOMP_SAME_STAT(frees)
  LPOMP_SAME_STAT(failed_allocs)
  LPOMP_SAME_STAT(splits)
  LPOMP_SAME_STAT(coalesces)
  LPOMP_SAME_STAT(last_alloc_work)
  LPOMP_SAME_STAT(total_alloc_work)
#undef LPOMP_SAME_STAT
  if (os.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << os.str();
}

struct Block {
  paddr_t addr = 0;
  std::size_t order = 0;
};

class PhysMemDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PhysMemDifferential, RandomTakeReturnMatchesReference) {
  constexpr std::size_t kBytes = MiB(16);
  PhysMem pm(kBytes);
  oracle::RefPhysMem ref(kBytes);
  Rng rng(GetParam());
  std::vector<Block> live;
  std::vector<Block> freed;  // candidates for a rejected double free
  count_t failures = 0;

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.next_below(16);
    if (live.empty() || op < 9) {
      // Low orders dominate, as page-table nodes and 4 KB pages do.
      const std::size_t order = rng.next_below(3) == 0
                                    ? rng.next_below(PhysMem::kMaxOrder + 1)
                                    : rng.next_below(2);
      const std::optional<paddr_t> a = pm.take_block(order);
      const std::optional<paddr_t> b = ref.take_block(order);
      ASSERT_EQ(a, b) << "step " << step << " order " << order;
      if (a) {
        live.push_back({*a, order});
      } else {
        ++failures;
      }
    } else if (op < 15) {
      const std::size_t pick = rng.next_below(live.size());
      const Block blk = live[pick];
      live[pick] = live.back();
      live.pop_back();
      pm.return_block(blk.addr, blk.order);
      ref.return_block(blk.addr, blk.order);
      freed.push_back(blk);
    } else {
      // A free both must reject without changing state: a double free, a
      // live block under the wrong order, or a misaligned address.
      Block bad;
      const std::uint64_t kind = rng.next_below(3);
      if (kind == 0 && !freed.empty()) {
        bad = freed[rng.next_below(freed.size())];
        const bool retaken = std::any_of(
            live.begin(), live.end(), [&](const Block& l) {
              return l.addr == bad.addr && l.order == bad.order;
            });
        if (retaken) continue;
      } else if (kind == 1) {
        // No other block can start at a live block's address.
        bad = live[rng.next_below(live.size())];
        bad.order = bad.order < PhysMem::kMaxOrder ? bad.order + 1 : 0;
      } else {
        bad = {kSmallPageSize * (1 + rng.next_below(64)) + 8, 0};
      }
      EXPECT_THROW(pm.return_block(bad.addr, bad.order), std::logic_error);
      EXPECT_THROW(ref.return_block(bad.addr, bad.order), std::logic_error);
    }
    ASSERT_TRUE(same_phys(pm, ref)) << "step " << step;
  }
  EXPECT_GT(failures, 0u) << "the sequence never exhausted memory";
  for (const Block& blk : live) {
    pm.return_block(blk.addr, blk.order);
    ref.return_block(blk.addr, blk.order);
  }
  EXPECT_TRUE(same_phys(pm, ref));
  EXPECT_EQ(pm.free_blocks(PhysMem::kMaxOrder), kBytes / MiB(4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysMemDifferential,
                         ::testing::Values(1, 2, 3, 7, 11, 42, 1234, 99991));

::testing::AssertionResult same_walk(const mem::WalkResult& a,
                                     const mem::WalkResult& b) {
  bool same = a.present == b.present && a.levels_touched == b.levels_touched;
  if (a.present && b.present) same &= a.paddr == b.paddr && a.kind == b.kind;
  for (unsigned l = 0; l < 4; ++l) same &= a.entry_addr[l] == b.entry_addr[l];
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "present " << a.present << "/" << b.present << " paddr "
         << a.paddr << "/" << b.paddr << " kind " << static_cast<int>(a.kind)
         << "/" << static_cast<int>(b.kind) << " levels " << a.levels_touched
         << "/" << b.levels_touched;
}

/// Sampled addresses of every live region, plus addresses just past each
/// and inside unmapped gaps.
std::vector<vaddr_t> sample_addresses(const std::vector<mem::Region>& live,
                                      Rng& rng) {
  std::vector<vaddr_t> out = {mem::AddressSpace::kSmallArenaBase,
                              mem::AddressSpace::kLargeArenaBase, 0};
  for (const mem::Region& r : live) {
    out.push_back(r.base);
    out.push_back(r.base + r.length - 1);
    out.push_back(r.base + r.length);
    for (int i = 0; i < 6; ++i) out.push_back(r.base + rng.next_below(r.length));
  }
  return out;
}

class AddressSpaceDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AddressSpaceDifferential, RandomMapUnmapPromoteMatchesReference) {
  constexpr std::size_t kBytes = MiB(48);
  PhysMem pm(kBytes);
  oracle::RefPhysMem ref_pm(kBytes);
  std::optional<mem::AddressSpace> space(std::in_place, pm);
  std::optional<oracle::RefAddressSpace> ref(std::in_place, ref_pm);
  Rng rng(GetParam());
  std::vector<mem::Region> live;
  count_t exhausted = 0;
  count_t promoted = 0;

  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (live.empty() || op < 4) {
      const PageKind kind =
          rng.next_below(3) == 0 ? PageKind::large2m : PageKind::small4k;
      const std::size_t bytes = 1 + rng.next_below(MiB(kind == PageKind::small4k
                                                           ? 9
                                                           : 12));
      std::optional<mem::Region> a;
      std::optional<mem::Region> b;
      try {
        a = space->map_region(bytes, kind, "r");
      } catch (const std::runtime_error&) {
      }
      try {
        b = ref->map_region(bytes, kind, "r");
      } catch (const std::runtime_error&) {
      }
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a) {
        ASSERT_EQ(a->base, b->base);
        ASSERT_EQ(a->length, b->length);
        live.push_back(*a);
      } else {
        ++exhausted;
      }
    } else if (op < 7) {
      const std::size_t pick = rng.next_below(live.size());
      space->unmap_region(live[pick].base);
      ref->unmap_region(live[pick].base);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      // Promote a random 2 MB chunk of a 4 KB region, when it has one that
      // is still 4 KB-mapped; a promoted chunk must be refused by both.
      const mem::Region& r = live[rng.next_below(live.size())];
      const vaddr_t first = (r.base + kLargePageSize - 1) &
                            ~(vaddr_t{kLargePageSize} - 1);
      if (r.kind != PageKind::small4k || first + kLargePageSize > r.base + r.length) {
        continue;
      }
      const std::size_t chunks = (r.base + r.length - first) / kLargePageSize;
      const vaddr_t chunk = first + rng.next_below(chunks) * kLargePageSize;
      if (space->kind_at(chunk) == PageKind::large2m) {
        EXPECT_THROW(space->promote(chunk), std::logic_error);
        EXPECT_THROW(ref->promote(chunk), std::logic_error);
      } else {
        const bool ok = space->promote(chunk);
        ASSERT_EQ(ok, ref->promote(chunk)) << "step " << step;
        promoted += ok ? 1 : 0;
      }
    }

    ASSERT_TRUE(same_phys(pm, ref_pm)) << "step " << step;
    const mem::PageTable& t = space->page_table();
    const oracle::RefPageTable& rt = ref->page_table();
    ASSERT_EQ(t.node_count(), rt.node_count()) << "step " << step;
    ASSERT_EQ(t.overhead_bytes(), rt.overhead_bytes());
    for (PageKind k : {PageKind::small4k, PageKind::large2m}) {
      ASSERT_EQ(t.mapped_pages(k), rt.mapped_pages(k)) << "step " << step;
      ASSERT_EQ(space->mapped_bytes(k), ref->mapped_bytes(k));
    }
    ASSERT_EQ(space->promotions(), ref->promotions());
    for (vaddr_t va : sample_addresses(live, rng)) {
      const mem::WalkResult w = space->translate(va);
      ASSERT_TRUE(same_walk(w, ref->translate(va)))
          << "step " << step << " va " << va;
      if (w.present) {
        ASSERT_EQ(space->kind_at(va), ref->kind_at(va));
      }
    }
  }
  EXPECT_GT(exhausted, 0u) << "the sequence never exhausted memory";
  EXPECT_GT(promoted, 0u) << "the sequence never promoted a chunk";

  // Tearing both down returns every frame, page-table nodes included.
  space.reset();
  ref.reset();
  EXPECT_TRUE(same_phys(pm, ref_pm));
  EXPECT_EQ(pm.free_bytes(), kBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressSpaceDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace lpomp

// Unit tests for the two-level DTLB + ITLB hierarchy.
#include <gtest/gtest.h>

#include "tlb/tlb_hierarchy.hpp"

namespace lpomp::tlb {
namespace {

TlbHierarchy opteron_like() {
  return TlbHierarchy({"itlb", {32, 32}, {8, 8}, {}},
                      {"l1d", {4, 4}, {2, 2}, {}},
                      Tlb::Config{"l2d", {16, 4}, {0, 0}, {}});
}

TlbHierarchy xeon_like() {
  return TlbHierarchy({"itlb", {64, 64}, {16, 16}, {}},
                      {"dtlb", {8, 8}, {4, 4}, {}}, std::nullopt);
}

TEST(TlbHierarchy, FirstAccessWalksAndFills) {
  TlbHierarchy h = opteron_like();
  EXPECT_EQ(h.data_access(1, PageKind::small4k), DtlbHit::walk);
  EXPECT_EQ(h.l1d().occupancy(PageKind::small4k), 1u);
  EXPECT_EQ(h.l2d().occupancy(PageKind::small4k), 1u);
  EXPECT_EQ(h.data_access(1, PageKind::small4k), DtlbHit::l1);
}

TEST(TlbHierarchy, L2BacksUpL1) {
  TlbHierarchy h = opteron_like();
  // Fill L1 (4 entries) past capacity; older entries stay in L2 (16).
  for (vpn_t v = 0; v < 8; ++v) h.data_access(v, PageKind::small4k);
  EXPECT_EQ(h.data_access(0, PageKind::small4k), DtlbHit::l2);
  // The L2 hit refilled L1.
  EXPECT_EQ(h.data_access(0, PageKind::small4k), DtlbHit::l1);
}

TEST(TlbHierarchy, HugePagesNotHeldByL2) {
  TlbHierarchy h = opteron_like();
  // 2 MB bank in L1 has 2 entries and no L2 backing: the third page evicts
  // to nowhere, so revisiting it is a full walk, not an L2 hit.
  for (vpn_t v : {10, 11, 12, 10}) {
    EXPECT_EQ(h.data_access(v, PageKind::large2m), DtlbHit::walk);
  }
  EXPECT_EQ(h.l1d().occupancy(PageKind::large2m), 2u);
  EXPECT_EQ(h.l2d().occupancy(PageKind::large2m), 0u);
}

TEST(TlbHierarchy, SingleLevelXeonWalksOnMiss) {
  TlbHierarchy h = xeon_like();
  EXPECT_FALSE(h.has_l2d());
  for (vpn_t v = 0; v < 9; ++v) h.data_access(v, PageKind::small4k);
  // 8-entry DTLB: vpn 0 was evicted, and there is no L2 to catch it.
  EXPECT_EQ(h.data_access(0, PageKind::small4k), DtlbHit::walk);
}

TEST(TlbHierarchy, WalkCountsByKind) {
  TlbHierarchy h = opteron_like();
  count_t walks[kPageKindCount] = {0, 0, 0};
  for (auto [vpn, kind] : {std::pair{1, PageKind::small4k},
                           std::pair{2, PageKind::large2m},
                           std::pair{3, PageKind::large2m},
                           std::pair{1, PageKind::small4k},
                           std::pair{2, PageKind::large2m}}) {
    if (h.data_access(vpn, kind) == DtlbHit::walk) {
      ++walks[static_cast<std::size_t>(kind)];
    }
  }
  // A small and a large page of the same vpn are distinct translations.
  EXPECT_EQ(h.data_access(1, PageKind::large2m), DtlbHit::walk);
  EXPECT_EQ(walks[0], 1u);
  EXPECT_EQ(walks[1], 2u);
  EXPECT_EQ(h.l1d().occupancy(PageKind::large2m), 2u);
}

TEST(TlbHierarchy, InstrAccessFillsItlb) {
  TlbHierarchy h = opteron_like();
  EXPECT_FALSE(h.instr_access(5, PageKind::small4k));
  EXPECT_TRUE(h.instr_access(5, PageKind::small4k));
  EXPECT_EQ(h.itlb().occupancy(PageKind::small4k), 1u);
  EXPECT_EQ(h.l1d().occupancy(PageKind::small4k), 0u);
}

TEST(TlbHierarchy, ItlbIndependentOfDtlb) {
  TlbHierarchy h = opteron_like();
  h.data_access(5, PageKind::small4k);
  EXPECT_FALSE(h.instr_access(5, PageKind::small4k));
}

TEST(TlbHierarchy, FlushAllDropsAllLevels) {
  TlbHierarchy h = opteron_like();
  h.data_access(1, PageKind::small4k);
  h.instr_access(2, PageKind::small4k);
  h.flush_all();
  EXPECT_EQ(h.data_access(1, PageKind::small4k), DtlbHit::walk);
  EXPECT_FALSE(h.instr_access(2, PageKind::small4k));
}

TEST(TlbHierarchy, L2dAccessorGuarded) {
  TlbHierarchy x = xeon_like();
  EXPECT_THROW(x.l2d(), std::logic_error);
  TlbHierarchy o = opteron_like();
  EXPECT_NO_THROW(o.l2d());
}

}  // namespace
}  // namespace lpomp::tlb

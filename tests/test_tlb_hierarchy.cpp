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
  EXPECT_EQ(h.walk_count(PageKind::small4k), 1u);
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
  h.data_access(10, PageKind::large2m);
  h.data_access(11, PageKind::large2m);
  h.data_access(12, PageKind::large2m);
  EXPECT_EQ(h.data_access(10, PageKind::large2m), DtlbHit::walk);
  EXPECT_EQ(h.walk_count(PageKind::large2m), 4u);
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
  h.data_access(1, PageKind::small4k);
  h.data_access(2, PageKind::large2m);
  h.data_access(3, PageKind::large2m);
  EXPECT_EQ(h.walk_count(PageKind::small4k), 1u);
  EXPECT_EQ(h.walk_count(PageKind::large2m), 2u);
  EXPECT_EQ(h.walk_count(), 3u);
}

TEST(TlbHierarchy, InstrAccessFillsItlb) {
  TlbHierarchy h = opteron_like();
  EXPECT_FALSE(h.instr_access(5, PageKind::small4k));
  EXPECT_TRUE(h.instr_access(5, PageKind::small4k));
  EXPECT_EQ(h.itlb_miss_count(), 1u);
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

TEST(TlbHierarchy, ResetStatsClearsCounters) {
  TlbHierarchy h = opteron_like();
  h.data_access(1, PageKind::small4k);
  h.instr_access(1, PageKind::small4k);
  h.reset_stats();
  EXPECT_EQ(h.walk_count(), 0u);
  EXPECT_EQ(h.itlb_miss_count(), 0u);
  EXPECT_EQ(h.l1d().stats().total_lookups(), 0u);
}

TEST(TlbHierarchy, L2dAccessorGuarded) {
  TlbHierarchy x = xeon_like();
  EXPECT_THROW(x.l2d(), std::logic_error);
  TlbHierarchy o = opteron_like();
  EXPECT_NO_THROW(o.l2d());
}

}  // namespace
}  // namespace lpomp::tlb

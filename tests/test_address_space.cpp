// Unit tests for the simulated per-process address space.
#include <gtest/gtest.h>

#include "mem/address_space.hpp"
#include "mem/hugetlbfs.hpp"

namespace lpomp::mem {
namespace {

TEST(AddressSpace, MapRoundsUpToPageSize) {
  PhysMem pm(MiB(32));
  AddressSpace space(pm);
  const Region r = space.map_region(100, PageKind::small4k, "tiny");
  EXPECT_EQ(r.length, kSmallPageSize);
  const Region h = space.map_region(MiB(3), PageKind::large2m, "big");
  EXPECT_EQ(h.length, MiB(4));
}

TEST(AddressSpace, RegionsEagerlyPopulated) {
  PhysMem pm(MiB(32));
  AddressSpace space(pm);
  const Region r = space.map_region(MiB(1), PageKind::small4k, "data");
  for (vaddr_t off = 0; off < r.length; off += kSmallPageSize) {
    EXPECT_TRUE(space.translate(r.base + off).present);
  }
}

TEST(AddressSpace, TranslateRespectsKind) {
  PhysMem pm(MiB(32));
  AddressSpace space(pm);
  const Region s = space.map_region(MiB(1), PageKind::small4k, "s");
  const Region l = space.map_region(MiB(2), PageKind::large2m, "l");
  EXPECT_EQ(space.translate(s.base).kind, PageKind::small4k);
  EXPECT_EQ(space.translate(l.base).kind, PageKind::large2m);
  EXPECT_EQ(space.translate(s.base).levels_touched, 4u);
  EXPECT_EQ(space.translate(l.base).levels_touched, 3u);
}

TEST(AddressSpace, ArenasAreDisjoint) {
  PhysMem pm(MiB(32));
  AddressSpace space(pm);
  const Region s = space.map_region(MiB(1), PageKind::small4k, "s");
  const Region l = space.map_region(MiB(2), PageKind::large2m, "l");
  EXPECT_GE(s.base, AddressSpace::kSmallArenaBase);
  EXPECT_LT(s.base + s.length, AddressSpace::kLargeArenaBase);
  EXPECT_GE(l.base, AddressSpace::kLargeArenaBase);
}

TEST(AddressSpace, SequentialRegionsDontOverlap) {
  PhysMem pm(MiB(32));
  AddressSpace space(pm);
  const Region a = space.map_region(MiB(1) + 17, PageKind::small4k, "a");
  const Region b = space.map_region(KiB(64), PageKind::small4k, "b");
  EXPECT_GE(b.base, a.base + a.length);
}

TEST(AddressSpace, FindRegion) {
  PhysMem pm(MiB(32));
  AddressSpace space(pm);
  const Region a = space.map_region(MiB(1), PageKind::small4k, "alpha");
  const Region* hit = space.find_region(a.base + 12345);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->name, "alpha");
  EXPECT_EQ(space.find_region(a.base + a.length), nullptr);
  EXPECT_EQ(space.find_region(0), nullptr);
}

TEST(AddressSpace, UnmapReturnsFrames) {
  PhysMem pm(MiB(32));
  AddressSpace space(pm);
  // Data frames and the table nodes the region needed all come back on
  // unmap: only the root node stays.
  const std::size_t before = pm.free_bytes();
  const Region r = space.map_region(MiB(2), PageKind::large2m, "tmp");
  EXPECT_LT(pm.free_bytes(), before);
  space.unmap_region(r.base);
  EXPECT_EQ(pm.free_bytes(), before);
  EXPECT_EQ(space.page_table().node_count(), 1u);
  EXPECT_FALSE(space.translate(r.base).present);
  EXPECT_EQ(space.mapped_bytes(), 0u);
}

TEST(AddressSpace, RepeatedMapUnmapKeepsTableBounded) {
  // Virtual addresses are never reused, so each round maps a fresh 4 MiB
  // and needs fresh table nodes; unmapping frees them again, so one space
  // runs forever on 64 MiB.
  PhysMem pm(MiB(64));
  AddressSpace space(pm);
  const std::size_t before = pm.free_bytes();
  for (int round = 0; round < 10000; ++round) {
    const Region r = space.map_region(MiB(4), PageKind::small4k, "round");
    space.unmap_region(r.base);
    ASSERT_EQ(space.page_table().node_count(), 1u) << "round " << round;
  }
  EXPECT_EQ(pm.free_bytes(), before);
}

TEST(AddressSpace, UnmapUnknownRegionThrows) {
  PhysMem pm(MiB(32));
  AddressSpace space(pm);
  EXPECT_THROW(space.unmap_region(0x1234), std::logic_error);
}

TEST(AddressSpace, MappedBytesPerKind) {
  PhysMem pm(MiB(32));
  AddressSpace space(pm);
  space.map_region(MiB(1), PageKind::small4k, "s");
  space.map_region(MiB(2), PageKind::large2m, "l");
  EXPECT_EQ(space.mapped_bytes(PageKind::small4k), MiB(1));
  EXPECT_EQ(space.mapped_bytes(PageKind::large2m), MiB(2));
  EXPECT_EQ(space.mapped_bytes(), MiB(3));
}

TEST(AddressSpace, ExhaustionThrowsAndRollsBack) {
  PhysMem pm(MiB(8));
  AddressSpace space(pm);
  const std::size_t before_free = pm.free_bytes();
  EXPECT_THROW(space.map_region(MiB(16), PageKind::small4k, "huge"),
               std::runtime_error);
  // Every data frame and every table node of the failed region is rolled
  // back (no region leaked).
  EXPECT_EQ(space.mapped_bytes(), 0u);
  EXPECT_EQ(space.regions().size(), 0u);
  EXPECT_EQ(pm.free_bytes(), before_free);
  EXPECT_EQ(space.page_table().node_count(), 1u);
}

TEST(AddressSpace, HugeTlbFsAsFrameSource) {
  PhysMem pm(MiB(32));
  HugeTlbFs fs(pm, 4);
  AddressSpace space(pm);
  const Region r = space.map_region(MiB(4), PageKind::large2m, "pool", &fs);
  EXPECT_EQ(fs.free_pages(), 2u);
  EXPECT_TRUE(space.translate(r.base + MiB(3)).present);
  space.unmap_region(r.base);
  EXPECT_EQ(fs.free_pages(), 4u);
}

TEST(AddressSpace, PoolExhaustionRollsBackToSource) {
  PhysMem pm(MiB(32));
  HugeTlbFs fs(pm, 2);
  AddressSpace space(pm);
  EXPECT_THROW(space.map_region(MiB(8), PageKind::large2m, "toobig", &fs),
               std::runtime_error);
  EXPECT_EQ(fs.free_pages(), 2u);  // partial population rolled back
}

TEST(AddressSpace, RegionsListing) {
  PhysMem pm(MiB(32));
  AddressSpace space(pm);
  space.map_region(MiB(1), PageKind::small4k, "one");
  space.map_region(MiB(2), PageKind::large2m, "two");
  const auto regions = space.regions();
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].name, "one");
  EXPECT_EQ(regions[1].name, "two");
}

TEST(AddressSpace, DestructorReleasesEverything) {
  PhysMem pm(MiB(32));
  const std::size_t before = pm.free_bytes();
  {
    AddressSpace space(pm);
    space.map_region(MiB(4), PageKind::small4k, "a");
    space.map_region(MiB(4), PageKind::large2m, "b");
  }
  EXPECT_EQ(pm.free_bytes(), before);
}

}  // namespace
}  // namespace lpomp::mem

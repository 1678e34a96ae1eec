// Unit tests for the startup-preallocated shared allocator and the
// instrumented shared arrays.
#include <gtest/gtest.h>

#include "core/allocator.hpp"
#include "core/shared_array.hpp"
#include "mem/hugetlbfs.hpp"

namespace lpomp::core {
namespace {

class AllocatorTest : public ::testing::Test {
 protected:
  mem::PhysMem pm_{MiB(64)};
  mem::AddressSpace space_{pm_};
};

TEST_F(AllocatorTest, PoolMappedEagerlyAtConstruction) {
  SharedAllocator alloc(space_, nullptr, PageKind::small4k, MiB(4), "pool");
  EXPECT_EQ(alloc.capacity(), MiB(4));
  EXPECT_EQ(alloc.used(), 0u);
  // Every page of the pool is already mapped (startup preallocation).
  EXPECT_TRUE(space_.translate(alloc.region_base()).present);
  EXPECT_TRUE(
      space_.translate(alloc.region_base() + MiB(4) - 1).present);
}

TEST_F(AllocatorTest, BlocksCarvedSequentially) {
  SharedAllocator alloc(space_, nullptr, PageKind::small4k, MiB(1), "pool");
  const auto a = alloc.allocate(100, 64, "a");
  const auto b = alloc.allocate(100, 64, "b");
  EXPECT_GE(b.sim_base, a.sim_base + 100);
  EXPECT_EQ(b.host - a.host,
            static_cast<std::ptrdiff_t>(b.sim_base - a.sim_base))
      << "host and simulated offsets must correspond";
  EXPECT_EQ(alloc.allocation_count(), 2u);
}

// The pool image is zeroed on demand (calloc) rather than written up
// front; kernels rely on fresh blocks reading as zero either way.
TEST_F(AllocatorTest, FreshBlocksReadAllZeroBeforeFirstWrite) {
  SharedAllocator alloc(space_, nullptr, PageKind::small4k, MiB(4), "pool");
  const auto head = alloc.allocate(KiB(64), 64, "head");
  const auto tail = alloc.allocate(MiB(3), 4096, "tail");
  for (const auto& block : {head, tail}) {
    for (std::size_t i = 0; i < block.bytes; ++i) {
      ASSERT_EQ(block.host[i], std::byte{0}) << "offset " << i;
    }
  }
}

TEST_F(AllocatorTest, AlignmentHonoured) {
  SharedAllocator alloc(space_, nullptr, PageKind::small4k, MiB(1), "pool");
  alloc.allocate(3, 64, "odd");
  const auto b = alloc.allocate(8, 256, "aligned");
  EXPECT_EQ(b.sim_base % 256, 0u);
}

TEST_F(AllocatorTest, ExhaustionThrows) {
  SharedAllocator alloc(space_, nullptr, PageKind::small4k, KiB(8), "pool");
  alloc.allocate(KiB(6));
  EXPECT_THROW(alloc.allocate(KiB(4)), std::runtime_error);
}

TEST_F(AllocatorTest, HugePoolDrawsFromHugeTlbFs) {
  mem::HugeTlbFs fs(pm_, 4);
  SharedAllocator alloc(space_, &fs, PageKind::large2m, MiB(4), "pool");
  EXPECT_EQ(fs.free_pages(), 2u);
  EXPECT_EQ(alloc.page_kind(), PageKind::large2m);
  EXPECT_EQ(space_.translate(alloc.region_base()).kind, PageKind::large2m);
}

TEST_F(AllocatorTest, LabelsRecorded) {
  SharedAllocator alloc(space_, nullptr, PageKind::small4k, MiB(1), "pool");
  alloc.allocate(10, 64, "x");
  alloc.allocate(20, 64);
  ASSERT_EQ(alloc.allocations().size(), 2u);
  EXPECT_EQ(alloc.allocations()[0].first, "x");
  EXPECT_EQ(alloc.allocations()[1].first, "anonymous");
  EXPECT_EQ(alloc.allocations()[1].second, 20u);
}

TEST_F(AllocatorTest, DestructorUnmapsPool) {
  const std::size_t before =
      pm_.free_bytes() + space_.page_table().overhead_bytes();
  { SharedAllocator alloc(space_, nullptr, PageKind::small4k, MiB(2), "p"); }
  EXPECT_EQ(space_.mapped_bytes(), 0u);
  // Data frames returned; only page-table node frames remain held.
  EXPECT_EQ(pm_.free_bytes() + space_.page_table().overhead_bytes(), before);
}

TEST_F(AllocatorTest, SharedArrayZeroInitialised) {
  SharedAllocator alloc(space_, nullptr, PageKind::small4k, MiB(1), "pool");
  SharedArray<double> arr(alloc, 100, "zeros");
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(arr[i], 0.0);
  EXPECT_EQ(arr.size(), 100u);
  EXPECT_FALSE(arr.empty());
}

TEST_F(AllocatorTest, SharedArraySimAddresses) {
  SharedAllocator alloc(space_, nullptr, PageKind::small4k, MiB(1), "pool");
  SharedArray<double> arr(alloc, 100, "addr");
  EXPECT_EQ(arr.sim_addr(10), arr.sim_addr(0) + 10 * sizeof(double));
  EXPECT_EQ(arr.page_kind(), PageKind::small4k);
  EXPECT_TRUE(space_.translate(arr.sim_addr(99)).present);
}

TEST_F(AllocatorTest, UninstrumentedAccessorPassesThrough) {
  SharedAllocator alloc(space_, nullptr, PageKind::small4k, MiB(1), "pool");
  SharedArray<double> arr(alloc, 16, "plain");
  Accessor<double> view = arr.accessor(nullptr);
  EXPECT_FALSE(view.instrumented());
  view.store(3, 2.5);
  EXPECT_EQ(view.load(3), 2.5);
  EXPECT_EQ(arr[3], 2.5);
  EXPECT_EQ(view.size(), 16u);
}

TEST_F(AllocatorTest, InstrumentedAccessorReportsTraffic) {
  SharedAllocator alloc(space_, nullptr, PageKind::small4k, MiB(1), "pool");
  SharedArray<double> arr(alloc, 16, "inst");

  sim::CostModel cm;
  sim::ThreadSim sim(cm, space_, {"i", {8, 8}, {2, 2}, {0, 0}},
                     {"d", {8, 8}, {2, 2}, {0, 0}}, std::nullopt, {KiB(4), 64, 2},
                     {KiB(64), 64, 4}, 1);
  Accessor<double> view = arr.accessor(&sim);
  EXPECT_TRUE(view.instrumented());
  view.store(0, 1.5);
  EXPECT_EQ(view.load(0), 1.5);
  EXPECT_EQ(sim.counters().accesses, 2u);
  EXPECT_EQ(sim.counters().stores, 1u);
  view.touch_only(0, Access::load);
  EXPECT_EQ(sim.counters().accesses, 3u);
  view.compute(7);
  EXPECT_GE(sim.counters().exec_cycles, 7u);
}

}  // namespace
}  // namespace lpomp::core

// Unit tests for the per-thread simulation engine: cycle accounting, TLB
// and cache event generation, page-walk cost through the data caches, the
// stream prefetcher, and the instruction-stream model.
#include <gtest/gtest.h>

#include <string>

#include "mem/address_space.hpp"
#include "sim/thread_sim.hpp"

namespace lpomp::sim {
namespace {

class ThreadSimTest : public ::testing::Test {
 protected:
  ThreadSimTest() : pm_(MiB(64)), space_(pm_) {
    small_ = space_.map_region(MiB(8), PageKind::small4k, "small");
    large_ = space_.map_region(MiB(8), PageKind::large2m, "large");
  }

  ThreadSim make_sim() {
    return ThreadSim(cm_, space_, {"itlb", {32, 32}, {8, 8}, {0, 0}},
                     {"l1d", {32, 32}, {8, 8}, {0, 0}},
                     tlb::Tlb::Config{"l2d", {512, 4}, {0, 0}, {0, 0}},
                     {KiB(64), 64, 2}, {MiB(1), 64, 16}, 0x5eed);
  }

  CostModel cm_;
  mem::PhysMem pm_;
  mem::AddressSpace space_;
  mem::Region small_, large_;
};

TEST_F(ThreadSimTest, CountsAccessesAndStores) {
  ThreadSim t = make_sim();
  t.touch(small_.base, PageKind::small4k, Access::load);
  t.touch(small_.base + 8, PageKind::small4k, Access::store);
  EXPECT_EQ(t.counters().accesses, 2u);
  EXPECT_EQ(t.counters().stores, 1u);
  EXPECT_EQ(t.counters().exec_cycles, 2 * cm_.exec_per_access);
}

TEST_F(ThreadSimTest, FirstTouchWalksFourLevels) {
  ThreadSim t = make_sim();
  t.touch(small_.base, PageKind::small4k, Access::load);
  EXPECT_EQ(t.counters().dtlb_walks[0], 1u);
  EXPECT_EQ(t.counters().walk_levels, 4u);
}

TEST_F(ThreadSimTest, HugePageWalksThreeLevels) {
  ThreadSim t = make_sim();
  t.touch(large_.base, PageKind::large2m, Access::load);
  EXPECT_EQ(t.counters().dtlb_walks[1], 1u);
  EXPECT_EQ(t.counters().walk_levels, 3u);
}

TEST_F(ThreadSimTest, SamePageSecondAccessNoTlbEvent) {
  ThreadSim t = make_sim();
  t.touch(small_.base, PageKind::small4k, Access::load);
  const count_t walks = t.counters().dtlb_walk_total();
  t.touch(small_.base + 64, PageKind::small4k, Access::load);
  EXPECT_EQ(t.counters().dtlb_walk_total(), walks);
  EXPECT_EQ(t.counters().dtlb_l1_misses, 1u);
}

TEST_F(ThreadSimTest, UnmappedAccessIsLogicError) {
  ThreadSim t = make_sim();
  EXPECT_THROW(t.touch(0xdead0000, PageKind::small4k, Access::load),
               std::logic_error);
}

TEST_F(ThreadSimTest, KindMismatchDetected) {
  ThreadSim t = make_sim();
  EXPECT_THROW(t.touch(large_.base, PageKind::small4k, Access::load),
               std::logic_error);
}

// The walk memo is keyed by the page table's generation: after an unmap, a
// touch of the old address walks the table again and fails, on the fast
// path (which would otherwise credit the remembered walk) and on the
// per-event path alike. huge1g makes every access walk here: neither DTLB
// level holds 1 GiB entries.
TEST_F(ThreadSimTest, WalkMemoHonoursUnmap) {
  paging::PolicySpec huge1g;
  huge1g.policy = paging::Policy::huge1g;
  for (const bool fast : {true, false}) {
    const mem::Region r =
        space_.map_region(MiB(1), PageKind::small4k, "short-lived");
    ThreadSim t = make_sim();
    t.set_fast_path(fast);
    t.set_paging(huge1g);
    t.touch(r.base, PageKind::small4k, Access::load);
    t.touch(r.base, PageKind::small4k, Access::load);
    EXPECT_EQ(t.counters().dtlb_walks[2], 2u);
    space_.unmap_region(r.base);
    try {
      t.touch(r.base, PageKind::small4k, Access::load);
      ADD_FAILURE() << "touch of an unmapped address did not fail (fast="
                    << fast << ")";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "paging walk of an unmapped address"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(ThreadSimTest, CacheHitsAfterFirstLineTouch) {
  ThreadSim t = make_sim();
  t.touch(small_.base, PageKind::small4k, Access::load);
  const count_t misses = t.counters().l1d_misses;
  t.touch(small_.base + 32, PageKind::small4k, Access::load);  // same line
  EXPECT_EQ(t.counters().l1d_misses, misses);
}

TEST_F(ThreadSimTest, StallsGrowWithMisses) {
  ThreadSim t = make_sim();
  t.touch(small_.base, PageKind::small4k, Access::load);
  const cycles_t first = t.counters().stall_cycles;
  EXPECT_GT(first, 0u);  // walk + memory miss
  t.touch(small_.base, PageKind::small4k, Access::load);
  EXPECT_EQ(t.counters().stall_cycles, first);  // all-hit second access
}

TEST_F(ThreadSimTest, PrefetcherCoversSequentialStreams) {
  ThreadSim t = make_sim();
  // Stream 32 lines within one 4 KB page: lines 0 and 1 are exposed
  // (detection), the rest covered.
  for (int line = 0; line < 32; ++line) {
    t.touch(small_.base + static_cast<vaddr_t>(line) * 64,
            PageKind::small4k, Access::load);
  }
  EXPECT_EQ(t.counters().prefetch_covered, 30u);
  EXPECT_EQ(t.counters().long_stalls, 2u);
}

TEST_F(ThreadSimTest, PrefetcherStopsAtPageBoundary) {
  ThreadSim t = make_sim();
  // Stream across a 4 KB page boundary: the first lines of the next page
  // miss in full again (the stream re-arms per page).
  const count_t lines_per_page = kSmallPageSize / 64;
  for (count_t line = 0; line < lines_per_page + 8; ++line) {
    t.touch(small_.base + line * 64, PageKind::small4k, Access::load);
  }
  // 2 exposed misses in each page.
  EXPECT_EQ(t.counters().long_stalls, 4u);
}

TEST_F(ThreadSimTest, PrefetcherRunsThroughHugePage) {
  ThreadSim t = make_sim();
  const count_t lines = 2 * kSmallPageSize / 64;  // spans two 4 KB pages
  for (count_t line = 0; line < lines; ++line) {
    t.touch(large_.base + line * 64, PageKind::large2m, Access::load);
  }
  // One detection (2 exposed misses) for the whole stretch: no 4 KB
  // boundary exists inside a 2 MB page.
  EXPECT_EQ(t.counters().long_stalls, 2u);
}

TEST_F(ThreadSimTest, PrefetcherIgnoresRandomAccess) {
  ThreadSim t = make_sim();
  // Touch every 8th line: stride 512 B is not sequential at line granularity.
  for (int i = 0; i < 16; ++i) {
    t.touch(small_.base + static_cast<vaddr_t>(i) * 512, PageKind::small4k,
            Access::load);
  }
  EXPECT_EQ(t.counters().prefetch_covered, 0u);
}

TEST_F(ThreadSimTest, DescendingStreamsCoveredToo) {
  ThreadSim t = make_sim();
  const vaddr_t top = small_.base + kSmallPageSize - 64;
  for (int line = 0; line < 16; ++line) {
    t.touch(top - static_cast<vaddr_t>(line) * 64, PageKind::small4k,
            Access::load);
  }
  EXPECT_GT(t.counters().prefetch_covered, 10u);
}

TEST_F(ThreadSimTest, WalkCostUsesCachedPtes) {
  ThreadSim t = make_sim();
  // Touch two pages whose PTEs share one PTE cache line (adjacent pages):
  // the second walk's table loads should hit the data cache, so its stall
  // is much cheaper than the first (which missed to memory).
  t.touch(small_.base, PageKind::small4k, Access::load);
  const cycles_t after_first = t.counters().stall_cycles;
  t.touch(small_.base + kSmallPageSize, PageKind::small4k, Access::load);
  const cycles_t second_walk_cost =
      t.counters().stall_cycles - after_first;
  // The second access pays: cached-PTE walk + its own data-memory miss.
  EXPECT_LT(second_walk_cost,
            cm_.contended_mem_stall(1) + 4 * cm_.walk_level_stall +
                cm_.l2_hit_stall * 4 + cm_.mem_stall);
  EXPECT_EQ(t.counters().dtlb_walk_total(), 2u);
}

TEST_F(ThreadSimTest, ContentionInflatesMemoryStalls) {
  ThreadSim a = make_sim();
  ThreadSim b = make_sim();
  b.set_active_threads(4);
  // Random far-apart touches (no prefetch, all memory misses).
  for (int i = 0; i < 8; ++i) {
    const vaddr_t addr = small_.base + static_cast<vaddr_t>(i) * 5 * 4096;
    a.touch(addr, PageKind::small4k, Access::load);
    b.touch(addr, PageKind::small4k, Access::load);
  }
  EXPECT_GT(b.counters().stall_cycles, a.counters().stall_cycles);
}

TEST_F(ThreadSimTest, TouchRunEquivalentToLoop) {
  ThreadSim a = make_sim();
  ThreadSim b = make_sim();
  a.touch_run(small_.base, 100, PageKind::small4k, Access::load);
  for (std::size_t i = 0; i < 100; ++i) {
    b.touch(small_.base + i * sizeof(double), PageKind::small4k,
            Access::load);
  }
  EXPECT_EQ(a.counters().accesses, b.counters().accesses);
  EXPECT_EQ(a.counters().stall_cycles, b.counters().stall_cycles);
  EXPECT_EQ(a.counters().l1d_misses, b.counters().l1d_misses);
}

TEST_F(ThreadSimTest, CodeModelGeneratesItlbTraffic) {
  ThreadSim t = make_sim();
  const mem::Region text =
      space_.map_region(MiB(2), PageKind::small4k, "text");
  t.attach_code(text.base, MiB(2), PageKind::small4k, /*jump_period=*/10,
                /*cold_fraction=*/1.0);
  for (int i = 0; i < 10000; ++i) {
    t.touch(small_.base + static_cast<vaddr_t>(i % 512) * 8,
            PageKind::small4k, Access::load);
  }
  EXPECT_EQ(t.counters().itlb_lookups, 1000u);
  // Cold jumps over 512 pages against a 32-entry ITLB: mostly misses.
  EXPECT_GT(t.counters().itlb_misses, 500u);
}

TEST_F(ThreadSimTest, HotCodeMostlyHitsItlb) {
  ThreadSim t = make_sim();
  const mem::Region text =
      space_.map_region(MiB(2), PageKind::small4k, "text");
  t.attach_code(text.base, MiB(2), PageKind::small4k, /*jump_period=*/10,
                /*cold_fraction=*/0.0);
  for (int i = 0; i < 10000; ++i) {
    t.touch(small_.base, PageKind::small4k, Access::load);
  }
  // The hot set (12 pages) fits the 32-entry ITLB after warmup.
  EXPECT_LT(t.counters().itlb_misses, 20u);
}

TEST_F(ThreadSimTest, ComputeAddsExecOnly) {
  ThreadSim t = make_sim();
  t.add_compute(123);
  EXPECT_EQ(t.counters().exec_cycles, 123u);
  EXPECT_EQ(t.counters().stall_cycles, 0u);
}

TEST(ThreadCounters, PlusAndMinusRoundTrip) {
  ThreadCounters a;
  a.exec_cycles = 10;
  a.accesses = 5;
  a.dtlb_walks[1] = 2;
  ThreadCounters b;
  b.exec_cycles = 3;
  b.accesses = 2;
  b.dtlb_walks[1] = 1;
  ThreadCounters sum = a;
  sum += b;
  EXPECT_EQ(sum.exec_cycles, 13u);
  const ThreadCounters back = sum.minus(b);
  EXPECT_EQ(back.exec_cycles, a.exec_cycles);
  EXPECT_EQ(back.accesses, a.accesses);
  EXPECT_EQ(back.dtlb_walks[1], a.dtlb_walks[1]);
  EXPECT_EQ(sum.total_cycles(), sum.exec_cycles + sum.stall_cycles);
}

}  // namespace
}  // namespace lpomp::sim

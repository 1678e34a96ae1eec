// Unit tests for the per-thread simulation engine: TLB and cache event
// generation, page-walk PTE reads through the data caches, the stream
// prefetcher, the instruction-stream model, and the derivation of cycles
// from the counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "oracle/reference_sim.hpp"
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
    return ThreadSim(space_, {"itlb", {32, 32}, {8, 8}, {0, 0}},
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
  EXPECT_EQ(t.counters().exec_cycles(cm_), 2 * cm_.exec_per_access);
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
  const cycles_t first = t.counters().stall_cycles(cm_, cm_.mem_stall);
  EXPECT_GT(first, 0u);  // walk + memory miss
  t.touch(small_.base, PageKind::small4k, Access::load);
  // All-hit second access.
  EXPECT_EQ(t.counters().stall_cycles(cm_, cm_.mem_stall), first);
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
  // A cold 4 KB walk reads its four PTE lines from memory.
  t.touch(small_.base, PageKind::small4k, Access::load);
  const ThreadCounters first = t.counters();
  EXPECT_EQ(first.walk_levels, 4u);
  EXPECT_EQ(first.pte_mem_misses, 4u);
  EXPECT_EQ(first.pte_l2_hits, 0u);
  // The adjacent page's PTE shares the first one's line (8 entries per
  // line), and the upper levels are the same entries: its walk hits all
  // four lines in L1, so it pays only the walker's per-level overhead on
  // top of its own data line's memory miss.
  t.touch(small_.base + kSmallPageSize, PageKind::small4k, Access::load);
  const ThreadCounters second = t.counters().minus(first);
  EXPECT_EQ(second.dtlb_walk_total(), 1u);
  EXPECT_EQ(second.walk_levels, 4u);
  EXPECT_EQ(second.pte_mem_misses, 0u);
  EXPECT_EQ(second.pte_l2_hits, 0u);
  EXPECT_EQ(second.l2d_misses, 1u);
  EXPECT_EQ(second.prefetch_covered, 0u);
  EXPECT_EQ(second.stall_cycles(cm_, cm_.mem_stall),
            4 * cm_.walk_level_stall + cm_.mem_stall);
}

// Contention is the DRAM latency the counts are costed at: the same counts
// cost more at 4 active threads by exactly (uncovered L2 misses + PTE
// memory misses) × the latency's increase.
TEST_F(ThreadSimTest, ContentionInflatesMemoryStalls) {
  ThreadSim t = make_sim();
  // Random far-apart touches (no prefetch, all memory misses).
  for (int i = 0; i < 8; ++i) {
    const vaddr_t addr = small_.base + static_cast<vaddr_t>(i) * 5 * 4096;
    t.touch(addr, PageKind::small4k, Access::load);
  }
  const ThreadCounters& c = t.counters();
  const cycles_t mem1 = cm_.contended_mem_stall(1);
  const cycles_t mem4 = cm_.contended_mem_stall(4);
  ASSERT_GT(mem4, mem1);
  const count_t dram_reads =
      c.l2d_misses - c.prefetch_covered + c.pte_mem_misses;
  EXPECT_GE(dram_reads, 8u);
  EXPECT_EQ(c.stall_cycles(cm_, mem4) - c.stall_cycles(cm_, mem1),
            dram_reads * (mem4 - mem1));
}

TEST_F(ThreadSimTest, TouchRunEquivalentToLoop) {
  ThreadSim a = make_sim();
  ThreadSim b = make_sim();
  a.touch_run(small_.base, 100, PageKind::small4k, Access::load);
  for (std::size_t i = 0; i < 100; ++i) {
    b.touch(small_.base + i * sizeof(double), PageKind::small4k,
            Access::load);
  }
  std::ostringstream os;
  EXPECT_TRUE(oracle::diff_counters(a.counters(), b.counters(), os))
      << os.str();
  EXPECT_EQ(a.counters().accesses, 100u);
  EXPECT_EQ(a.counters().stall_cycles(cm_, cm_.mem_stall),
            b.counters().stall_cycles(cm_, cm_.mem_stall));
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
  EXPECT_EQ(t.counters().compute_cycles, 123u);
  EXPECT_EQ(t.counters().exec_cycles(cm_), 123u);
  EXPECT_EQ(t.counters().stall_cycles(cm_, cm_.mem_stall), 0u);
}

// Every field, set through the visitor to a distinct value, survives +=,
// minus and diff_counters. The visitor must reach each field exactly once:
// one it leaves out leaves the byte count short.
TEST(ThreadCounters, PlusAndMinusRoundTrip) {
  ThreadCounters a;
  ThreadCounters b;
  std::set<const count_t*> seen;
  count_t n = 0;
  ThreadCounters::for_each_field(
      [&](const char*, count_t& x, count_t& y) {
        seen.insert(&x);
        x = ++n;
        y = 1000 * n;
      },
      a, b);
  EXPECT_EQ(seen.size(), n);
  EXPECT_EQ(n * sizeof(count_t), sizeof(ThreadCounters));

  ThreadCounters sum = a;
  sum += b;
  const ThreadCounters back = sum.minus(b);
  count_t i = 0;
  ThreadCounters::for_each_field(
      [&](const char* name, count_t s, count_t r) {
        ++i;
        EXPECT_EQ(s, 1001 * i) << name;
        EXPECT_EQ(r, i) << name;
      },
      sum, back);
  const CostModel cm = oracle::prime_costs();
  EXPECT_EQ(sum.total_cycles(cm, cm.mem_stall),
            sum.exec_cycles(cm) + sum.stall_cycles(cm, cm.mem_stall));

  std::ostringstream none;
  EXPECT_TRUE(oracle::diff_counters(back, a, none)) << none.str();
  ThreadCounters::for_each_field(
      [&](const char* name, count_t& x) {
        ++x;
        std::ostringstream os;
        EXPECT_FALSE(oracle::diff_counters(a, back, os)) << name;
        EXPECT_EQ(os.str(), " " + std::string(name) + "=" +
                                std::to_string(x) + " vs " +
                                std::to_string(x - 1));
        --x;
      },
      a);
}

// The cycle derivation charges each cause exactly once, at its own cost.
// Each cause raises the counters one such event raises (an L2 hit is also
// an access and an L1 miss); with every cost a distinct prime, a dropped,
// doubled or mis-weighted term shows under the cause's name. Every counter
// must appear in a cause or among those that cost nothing, so a new one
// has to be classified here.
TEST(ThreadCounters, DerivationChargesEachCauseOnce) {
  const CostModel cm = oracle::prime_costs();
  const cycles_t mem = 331;  // a prime no other cost equals
  struct Cause {
    const char* name;
    std::vector<std::string> raises;
    cycles_t exec;
    cycles_t stall;
  };
  const std::vector<Cause> causes = {
      {"data L1 hit", {"accesses"}, cm.exec_per_access, cm.l1_hit_stall},
      {"data L2 hit", {"accesses", "l1d_misses"}, cm.exec_per_access,
       cm.l2_hit_stall},
      {"uncovered L2 miss", {"accesses", "l1d_misses", "l2d_misses"},
       cm.exec_per_access, mem},
      {"prefetch-covered L2 miss",
       {"accesses", "l1d_misses", "l2d_misses", "prefetch_covered"},
       cm.exec_per_access, cm.prefetched_stall},
      {"PTE line L2 hit", {"pte_l2_hits"}, 0, cm.l2_hit_stall},
      {"PTE line memory miss", {"pte_mem_misses"}, 0, mem},
      {"L2 DTLB hit", {"dtlb_l1_misses", "dtlb_l2_hits"}, 0,
       cm.dtlb_l2_hit_stall},
      {"walk level", {"walk_levels"}, 0, cm.walk_level_stall},
      {"ITLB miss", {"itlb_lookups", "itlb_misses"}, 0, cm.itlb_miss_stall},
      {"compute cycle", {"compute_cycles"}, 1, 0},
  };
  const std::vector<std::string> free = {
      "stores",        "dtlb_l1_misses", "dtlb_walks_4k", "dtlb_walks_2m",
      "dtlb_walks_1g", "pwc_hits",       "itlb_lookups",  "long_stalls"};

  auto raised = [](const std::vector<std::string>& names) {
    ThreadCounters c;
    ThreadCounters::for_each_field(
        [&](const char* name, count_t& x) {
          x += static_cast<count_t>(
              std::count(names.begin(), names.end(), name));
        },
        c);
    return c;
  };
  std::set<std::string> classified(free.begin(), free.end());
  for (const Cause& cause : causes) {
    const ThreadCounters c = raised(cause.raises);
    EXPECT_EQ(c.exec_cycles(cm), cause.exec) << cause.name;
    EXPECT_EQ(c.stall_cycles(cm, mem), cause.stall) << cause.name;
    EXPECT_EQ(c.total_cycles(cm, mem), cause.exec + cause.stall)
        << cause.name;
    classified.insert(cause.raises.begin(), cause.raises.end());
  }
  for (const std::string& name : free) {
    const ThreadCounters c = raised({name});
    EXPECT_EQ(c.exec_cycles(cm), 0u) << name;
    EXPECT_EQ(c.stall_cycles(cm, mem), 0u) << name;
  }
  ThreadCounters any;
  ThreadCounters::for_each_field(
      [&](const char* name, count_t) {
        EXPECT_TRUE(classified.count(name)) << name << " is unclassified";
      },
      any);
}

}  // namespace
}  // namespace lpomp::sim

// Tests for the Runtime facade: construction with both page sizes, the
// fork-join API, single/master, reductions, simulation attachment and
// accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>

#include "core/parallel_for.hpp"
#include "core/runtime.hpp"

namespace lpomp::core {
namespace {

RuntimeConfig small_config(unsigned threads, PageKind kind, bool with_sim) {
  RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.page_kind = kind;
  cfg.shared_pool_bytes = MiB(8);
  if (with_sim) cfg.sim = SimConfig{};
  return cfg;
}

TEST(Runtime, ConstructsWithoutSim) {
  Runtime rt(small_config(2, PageKind::small4k, false));
  EXPECT_EQ(rt.num_threads(), 2u);
  EXPECT_EQ(rt.machine(), nullptr);
  EXPECT_EQ(rt.finish_seconds(), 0.0);
  EXPECT_EQ(rt.hugetlb(), nullptr);
}

TEST(Runtime, HugePageRunMountsHugeTlbFs) {
  Runtime rt(small_config(2, PageKind::large2m, false));
  ASSERT_NE(rt.hugetlb(), nullptr);
  EXPECT_TRUE(rt.hugetlb()->file_exists("lpomp_shared_image"));
  // The whole shared pool came out of the preallocated pool.
  EXPECT_EQ(rt.hugetlb()->in_use_pages(), MiB(8) / kLargePageSize);
  EXPECT_EQ(rt.page_kind(), PageKind::large2m);
}

TEST(Runtime, SmallPageRunHasNoHugeTlbFs) {
  Runtime rt(small_config(1, PageKind::small4k, false));
  EXPECT_EQ(rt.hugetlb(), nullptr);
  EXPECT_EQ(rt.space().mapped_bytes(PageKind::large2m), 0u);
}

TEST(Runtime, ParallelRunsOnAllThreads) {
  Runtime rt(small_config(4, PageKind::small4k, false));
  std::atomic<unsigned> mask{0};
  rt.parallel([&mask](ThreadCtx& ctx) {
    mask.fetch_or(1u << ctx.tid());
    EXPECT_EQ(ctx.nthreads(), 4u);
  });
  EXPECT_EQ(mask.load(), 0b1111u);
}

// Host threads of this process, one directory each under /proc/self/task.
std::ptrdiff_t host_threads() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

TEST(Runtime, TeamStartsWithTheFirstParallelRegion) {
  const std::ptrdiff_t before = host_threads();
  Runtime rt(small_config(4, PageKind::small4k, true));
  rt.attach_code_model(MiB(1), 1000, 0.1);
  EXPECT_EQ(host_threads(), before);  // no region opened: no team yet
  rt.parallel([](ThreadCtx&) {});
  EXPECT_EQ(host_threads(), before + 3);  // the master is tid 0
  rt.parallel([](ThreadCtx&) {});
  EXPECT_EQ(host_threads(), before + 3);  // one team for every region
}

TEST(Runtime, AllocArrayZeroed) {
  Runtime rt(small_config(1, PageKind::small4k, false));
  auto arr = rt.alloc_array<std::int64_t>(1000, "zeros");
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(arr[i], 0);
}

TEST(Runtime, ReductionSumsAcrossThreads) {
  Runtime rt(small_config(4, PageKind::small4k, false));
  double result = 0.0;
  rt.parallel([&result](ThreadCtx& ctx) {
    const double total =
        ctx.reduce(static_cast<double>(ctx.tid() + 1), std::plus<>{});
    if (ctx.tid() == 0) result = total;
  });
  EXPECT_DOUBLE_EQ(result, 1 + 2 + 3 + 4);
}

TEST(Runtime, BackToBackReductionsDontRace) {
  Runtime rt(small_config(4, PageKind::small4k, false));
  for (int round = 0; round < 50; ++round) {
    double a = 0.0, b = 0.0;
    rt.parallel([&](ThreadCtx& ctx) {
      const double x = ctx.reduce(1.0, std::plus<>{});
      const double y = ctx.reduce(2.0, std::plus<>{});
      if (ctx.tid() == 0) {
        a = x;
        b = y;
      }
    });
    ASSERT_DOUBLE_EQ(a, 4.0);
    ASSERT_DOUBLE_EQ(b, 8.0);
  }
}

TEST(Runtime, ReduceSupportsMinMax) {
  Runtime rt(small_config(4, PageKind::small4k, false));
  int lo = 0, hi = 0;
  rt.parallel([&](ThreadCtx& ctx) {
    const int v = static_cast<int>(ctx.tid()) * 10;
    const int mn = ctx.reduce(v, [](int a, int b) { return std::min(a, b); });
    const int mx = ctx.reduce(v, [](int a, int b) { return std::max(a, b); });
    if (ctx.tid() == 0) {
      lo = mn;
      hi = mx;
    }
  });
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 30);
}

TEST(Runtime, SimAttachmentAccountsTime) {
  Runtime rt(small_config(2, PageKind::small4k, true));
  ASSERT_NE(rt.machine(), nullptr);
  auto arr = rt.alloc_array<double>(4096, "data");
  rt.parallel([&arr](ThreadCtx& ctx) {
    auto v = ctx.view(arr);
    ASSERT_NE(ctx.sim(), nullptr);
    for_static(0, 4096, ctx.tid(), ctx.nthreads(),
               [&](index_t i) { v.store(static_cast<std::size_t>(i), 1.0); });
  });
  const double secs = rt.finish_seconds();
  EXPECT_GT(secs, 0.0);
  EXPECT_EQ(rt.machine()->totals().accesses, 4096u);
  EXPECT_EQ(rt.machine()->totals().stores, 4096u);
}

TEST(Runtime, BarriersInsideRegionSplitSubRegions) {
  Runtime rt(small_config(4, PageKind::small4k, true));
  rt.parallel([](ThreadCtx& ctx) {
    ctx.compute(100);
    ctx.barrier();
    ctx.compute(100);
  });
  const double secs = rt.finish_seconds();
  const sim::CostModel cm;
  // Two sub-regions of 100 cycles plus: inner barrier charges one barrier
  // and the region end another.
  const double expected =
      cm.seconds(200 + 2 * (cm.barrier_base + 4 * cm.barrier_per_thread));
  EXPECT_NEAR(secs, expected, 1e-12);
}

TEST(Runtime, AttachCodeModelMapsText) {
  Runtime rt(small_config(1, PageKind::small4k, true));
  const std::size_t before = rt.space().mapped_bytes(PageKind::small4k);
  rt.attach_code_model(MiB(1) + KiB(513), 1000, 0.1);
  EXPECT_EQ(rt.space().mapped_bytes(PageKind::small4k),
            before + MiB(1) + KiB(516));  // rounded up to 4 KB pages
  EXPECT_THROW(rt.attach_code_model(MiB(1), 1000, 0.1), std::logic_error);
}

TEST(Runtime, FinishSecondsMonotonicAndStable) {
  Runtime rt(small_config(1, PageKind::small4k, true));
  rt.parallel([](ThreadCtx& ctx) { ctx.compute(1000); });
  const double t1 = rt.finish_seconds();
  const double t2 = rt.finish_seconds();
  EXPECT_EQ(t1, t2);  // no new work between calls
}

TEST(Runtime, PoolExhaustionSurfacesAtAllocation) {
  Runtime rt(small_config(1, PageKind::small4k, false));
  EXPECT_THROW(rt.alloc_array<double>(MiB(64), "too-big"),
               std::runtime_error);
}

TEST(Runtime, SamePoolServesManyArrays) {
  Runtime rt(small_config(2, PageKind::large2m, false));
  auto a = rt.alloc_array<double>(1000, "a");
  auto b = rt.alloc_array<std::int32_t>(1000, "b");
  auto c = rt.alloc_array<float>(1000, "c");
  EXPECT_EQ(rt.shared_allocator().allocation_count(), 3u);
  EXPECT_LT(a.sim_addr(0), b.sim_addr(0));
  EXPECT_LT(b.sim_addr(0), c.sim_addr(0));
}

// The single/master work-sharing constructs.

TEST(ThreadCtx, SingleRunsExactlyOnce) {
  RuntimeConfig cfg;
  cfg.num_threads = 4;
  cfg.shared_pool_bytes = MiB(1);
  Runtime rt(cfg);
  std::atomic<int> runs{0};
  std::atomic<int> observers{0};
  rt.parallel([&](ThreadCtx& ctx) {
    ctx.single([&runs] { runs.fetch_add(1); });
    // The trailing barrier guarantees everyone sees the effect.
    if (runs.load() == 1) observers.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(observers.load(), 4);
}

TEST(ThreadCtx, MasterRunsOnTidZeroOnly) {
  RuntimeConfig cfg;
  cfg.num_threads = 4;
  cfg.shared_pool_bytes = MiB(1);
  Runtime rt(cfg);
  std::atomic<unsigned> who{99};
  rt.parallel([&](ThreadCtx& ctx) {
    ctx.master([&who, &ctx] { who.store(ctx.tid()); });
  });
  EXPECT_EQ(who.load(), 0u);
}

}  // namespace
}  // namespace lpomp::core

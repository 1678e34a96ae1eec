// google-benchmark microbenchmarks of the library's building blocks: how
// fast the *simulator itself* runs on the host. These guard the
// instrumentation hot path (ThreadSim::touch) that every figure bench
// drives billions of times, plus the runtime primitives and the kernels'
// own numerics.
#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.hpp"
#include "core/runtime.hpp"
#include "dsm/msg_channel.hpp"
#include "mem/hugetlbfs.hpp"
#include "npb/npb.hpp"
#include "paging/policy.hpp"
#include "sim/machine.hpp"
#include "sim/processor_spec.hpp"
#include "support/rng.hpp"
#include "tlb/pwc.hpp"
#include "tlb/tlb_hierarchy.hpp"

using namespace lpomp;

namespace {

void BM_TlbLookupHit(benchmark::State& state) {
  tlb::Tlb t({"bench", {32, 32}, {8, 8}, {0, 0}});
  t.insert(42, PageKind::small4k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.lookup(42, PageKind::small4k));
  }
}
BENCHMARK(BM_TlbLookupHit);

void BM_TlbLookupMissFill(benchmark::State& state) {
  tlb::Tlb t({"bench", {32, 32}, {8, 8}, {0, 0}});
  vpn_t vpn = 0;
  for (auto _ : state) {
    if (!t.lookup(vpn, PageKind::small4k)) t.insert(vpn, PageKind::small4k);
    ++vpn;
  }
}
BENCHMARK(BM_TlbLookupMissFill);

// The same miss stream through Tlb::access: probe and fill in one scan.
void BM_TlbAccessMissFill(benchmark::State& state) {
  tlb::Tlb t({"bench", {32, 32}, {8, 8}, {0, 0}});
  vpn_t vpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.access(vpn, PageKind::small4k));
    ++vpn;
  }
}
BENCHMARK(BM_TlbAccessMissFill);

void BM_CacheAccessSequential(benchmark::State& state) {
  cache::Cache c("bench", {MiB(1), 64, 16});
  vaddr_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(addr, false));
    addr += 8;
  }
}
BENCHMARK(BM_CacheAccessSequential);

// Random 8-byte loads over 8 MiB against the sequential bench's 1 MiB
// 16-way geometry: most accesses miss and pay the full victim scan.
void BM_CacheAccessRandom(benchmark::State& state) {
  cache::Cache c("bench", {MiB(1), 64, 16});
  std::vector<vaddr_t> stream(std::size_t{1} << 16);
  Rng rng(17);
  for (vaddr_t& a : stream) a = rng.next_below(MiB(8) / 8) * 8;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(stream[i], false));
    i = (i + 1) % stream.size();
  }
}
BENCHMARK(BM_CacheAccessRandom);

// The page-walk cache on the modern spec's geometry, driven the way
// ThreadSim drives it on a 4-level walk: probe for the deepest cached
// interior level, then install the walk's interior entries. The stream
// walks 4 KB pages in runs of 16 and jumps to a random page of an 8 GiB
// span between runs, so the PMD level misses at each jump.
void BM_PwcProbe(benchmark::State& state) {
  tlb::Pwc pwc(sim::ProcessorSpec::modern().pwc);
  std::vector<vaddr_t> stream(4096);
  Rng rng(13);
  vaddr_t page = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    page = i % 16 == 0 ? rng.next_below(GiB(8) / KiB(4)) : page + 1;
    stream[i] = page * KiB(4);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const vaddr_t addr = stream[i];
    i = (i + 1) % stream.size();
    benchmark::DoNotOptimize(pwc.deepest_cached(addr, 3));
    pwc.insert(addr, 3);
  }
}
BENCHMARK(BM_PwcProbe);

void BM_PageWalk(benchmark::State& state) {
  mem::PhysMem pm(MiB(64));
  mem::AddressSpace space(pm);
  const mem::Region r = space.map_region(MiB(16), PageKind::small4k, "walk");
  Rng rng(7);
  for (auto _ : state) {
    const vaddr_t a = r.base + rng.next_below(r.length / 8) * 8;
    benchmark::DoNotOptimize(space.translate(a));
  }
}
BENCHMARK(BM_PageWalk);

void BM_ThreadSimTouchSequential(benchmark::State& state) {
  mem::PhysMem pm(MiB(128));
  mem::AddressSpace space(pm);
  const mem::Region r = space.map_region(MiB(64), PageKind::small4k, "data");
  sim::Machine machine(sim::ProcessorSpec::opteron270(), sim::CostModel{},
                       space, 1);
  machine.begin_parallel();
  sim::ThreadSim& t = machine.thread(0);
  vaddr_t off = 0;
  for (auto _ : state) {
    t.touch(r.base + off, PageKind::small4k, Access::load);
    off = (off + 8) % r.length;
  }
  machine.end_parallel();
}
BENCHMARK(BM_ThreadSimTouchSequential);

void BM_ThreadSimTouchRandom(benchmark::State& state) {
  mem::PhysMem pm(MiB(128));
  mem::AddressSpace space(pm);
  const mem::Region r = space.map_region(MiB(64), PageKind::small4k, "data");
  sim::Machine machine(sim::ProcessorSpec::opteron270(), sim::CostModel{},
                       space, 1);
  machine.begin_parallel();
  sim::ThreadSim& t = machine.thread(0);
  Rng rng(11);
  for (auto _ : state) {
    t.touch(r.base + rng.next_below(r.length / 8) * 8, PageKind::small4k,
            Access::load);
  }
  machine.end_parallel();
}
BENCHMARK(BM_ThreadSimTouchRandom);

// The Opteron under huge1g: neither DTLB level holds 1 GiB entries, so
// every access walks (two levels). Sequential touches take the bulk walk
// credit while a line stays newest; random ones walk through the memo.
void touch_walk_only(benchmark::State& state, bool random) {
  mem::PhysMem pm(MiB(128));
  mem::AddressSpace space(pm);
  const mem::Region r = space.map_region(MiB(64), PageKind::small4k, "data");
  sim::Machine machine(sim::ProcessorSpec::opteron270(), sim::CostModel{},
                       space, 1);
  machine.begin_parallel();
  sim::ThreadSim& t = machine.thread(0);
  paging::PolicySpec huge1g;
  huge1g.policy = paging::Policy::huge1g;
  t.set_paging(huge1g);
  Rng rng(13);
  vaddr_t off = 0;
  for (auto _ : state) {
    const vaddr_t a =
        random ? r.base + rng.next_below(r.length / 8) * 8 : r.base + off;
    t.touch(a, PageKind::small4k, Access::load);
    off = (off + 8) % r.length;
  }
  machine.end_parallel();
}

void BM_ThreadSimTouchWalkSequential(benchmark::State& state) {
  touch_walk_only(state, false);
}
BENCHMARK(BM_ThreadSimTouchWalkSequential);

void BM_ThreadSimTouchWalkRandom(benchmark::State& state) {
  touch_walk_only(state, true);
}
BENCHMARK(BM_ThreadSimTouchWalkRandom);

// CG's a[k] * p[col[k]] shape: element k of three unit-stride arrays on
// different pages, one touch each per iteration, so no two consecutive
// touches share a line or a page. Under 4 KB pages each touch is an L1 DTLB
// hit on a page that is not the bank's newest; under huge1g on the Opteron
// each is a walk of the remembered 1 GiB page.
void touch_interleaved(benchmark::State& state, bool huge1g) {
  mem::PhysMem pm(MiB(128));
  mem::AddressSpace space(pm);
  const mem::Region r = space.map_region(MiB(48), PageKind::small4k, "data");
  const vaddr_t arrays[3] = {r.base, r.base + MiB(16) + KiB(4) + 64,
                             r.base + MiB(32) + KiB(8) + 128};
  sim::Machine machine(sim::ProcessorSpec::opteron270(), sim::CostModel{},
                       space, 1);
  machine.begin_parallel();
  sim::ThreadSim& t = machine.thread(0);
  if (huge1g) {
    paging::PolicySpec spec;
    spec.policy = paging::Policy::huge1g;
    t.set_paging(spec);
  }
  vaddr_t off = 0;
  for (auto _ : state) {
    for (const vaddr_t a : arrays) {
      t.touch(a + off, PageKind::small4k, Access::load);
    }
    off = (off + 8) % MiB(15);  // every array stays inside the region
  }
  machine.end_parallel();
}

void BM_ThreadSimTouchInterleaved(benchmark::State& state) {
  touch_interleaved(state, false);
}
BENCHMARK(BM_ThreadSimTouchInterleaved);

void BM_ThreadSimTouchInterleavedWalk(benchmark::State& state) {
  touch_interleaved(state, true);
}
BENCHMARK(BM_ThreadSimTouchInterleavedWalk);

void BM_BuddyAllocFree2MB(benchmark::State& state) {
  mem::PhysMem pm(MiB(256));
  for (auto _ : state) {
    auto b = pm.alloc_huge_frame();
    pm.return_block(*b, mem::PhysMem::kHugeOrder);
  }
}
BENCHMARK(BM_BuddyAllocFree2MB);

// Substrate setup and teardown of one grid point, as npb::run_kernel does
// them around the kernel: PC.S on the Opteron model, 1 thread, 4 KB pages.
void BM_RuntimeSetup(benchmark::State& state) {
  core::RuntimeConfig cfg;
  cfg.num_threads = 1;
  cfg.shared_pool_bytes = npb::pool_bytes_for(npb::Kernel::PC, npb::Klass::S);
  cfg.sim = core::SimConfig{};
  const npb::CodeModel code = npb::code_model(npb::Kernel::PC);
  const auto text_bytes =
      static_cast<std::size_t>(npb::binary_bytes(npb::Kernel::PC));
  for (auto _ : state) {
    core::Runtime rt(cfg);
    rt.attach_code_model(text_bytes, code.jump_period, code.cold_fraction,
                         cfg.code_page_kind);
    benchmark::DoNotOptimize(rt.space().mapped_bytes());
  }
}
BENCHMARK(BM_RuntimeSetup);

// A fresh space per iteration, as each grid point builds one: the time
// covers the root node's setup and teardown too.
void BM_MapRegion4K(benchmark::State& state) {
  mem::PhysMem pm(MiB(64));
  for (auto _ : state) {
    mem::AddressSpace space(pm);
    const mem::Region r = space.map_region(MiB(4), PageKind::small4k, "r");
    benchmark::DoNotOptimize(r.base);
    space.unmap_region(r.base);
  }
}
BENCHMARK(BM_MapRegion4K);

void BM_HugeTlbFsTakeReturn(benchmark::State& state) {
  mem::PhysMem pm(MiB(256));
  mem::HugeTlbFs fs(pm, 64);
  for (auto _ : state) {
    auto b = fs.take_block(mem::PhysMem::kHugeOrder);
    fs.return_block(*b, mem::PhysMem::kHugeOrder);
  }
}
BENCHMARK(BM_HugeTlbFsTakeReturn);

void BM_MsgChannelPingPong(benchmark::State& state) {
  dsm::MsgChannel ch(2);
  const std::uint64_t payload = 42;
  for (auto _ : state) {
    ch.send_value(0, 1, payload);
    benchmark::DoNotOptimize(ch.recv_value<std::uint64_t>(1, 0));
  }
}
BENCHMARK(BM_MsgChannelPingPong);

void BM_ParallelRegionForkJoin(benchmark::State& state) {
  core::RuntimeConfig cfg;
  cfg.num_threads = static_cast<unsigned>(state.range(0));
  cfg.shared_pool_bytes = MiB(1);
  core::Runtime rt(cfg);
  for (auto _ : state) {
    rt.parallel([](core::ThreadCtx& ctx) { benchmark::DoNotOptimize(ctx.tid()); });
  }
}
BENCHMARK(BM_ParallelRegionForkJoin)->Arg(1)->Arg(2)->Arg(4);

void BM_Reduction(benchmark::State& state) {
  core::RuntimeConfig cfg;
  cfg.num_threads = 4;
  cfg.shared_pool_bytes = MiB(1);
  core::Runtime rt(cfg);
  for (auto _ : state) {
    double out = 0.0;
    rt.parallel([&out](core::ThreadCtx& ctx) {
      const double r = ctx.reduce(1.0, std::plus<>{});
      if (ctx.tid() == 0) out = r;
    });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_Reduction);

// Kernel numerics alone: class S with no simulator attached, as
// perfbench's npb.numerics probe runs it (setup included). Arg is the team
// width; wall time, since the team's other threads do half the work.
void BM_KernelNumerics(benchmark::State& state, npb::Kernel kernel) {
  core::RuntimeConfig cfg;
  cfg.num_threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const npb::NpbResult r = npb::run_kernel(kernel, npb::Klass::S, cfg);
    if (!r.verified) state.SkipWithError("kernel did not verify");
    benchmark::DoNotOptimize(r.checksum);
  }
}
BENCHMARK_CAPTURE(BM_KernelNumerics, GUPS, npb::Kernel::GUPS)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

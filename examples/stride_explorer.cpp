// stride_explorer: interactive version of the paper's §3.1-3.2 discussion,
// built entirely on the public runtime API. Sweeps the stride of a strided
// read loop (the FFT-style access pattern the paper motivates) over a
// shared array backed by 4 KB and then 2 MB pages, reporting simulated
// cycles per access and DTLB walks for each point, on any platform.
//
//   $ ./stride_explorer [--platform=opteron|xeon|modern] [--mb=48]
//                       [--threads=1]
#include <iostream>

#include "core/runtime.hpp"
#include "prof/profile.hpp"
#include "sim/processor_spec.hpp"
#include "support/format.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace lpomp;

namespace {

struct Point {
  double cycles_per_access;
  count_t walks;
};

Point run_stride(const sim::ProcessorSpec& spec, PageKind kind,
                 std::size_t array_bytes, std::size_t stride,
                 unsigned threads) {
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.page_kind = kind;
  cfg.shared_pool_bytes = array_bytes + MiB(4);
  cfg.sim = core::SimConfig{spec, sim::CostModel{}, 0x57121DEULL};

  core::Runtime rt(cfg);
  const std::size_t elements = array_bytes / sizeof(double);
  core::SharedArray<double> data = rt.alloc_array<double>(elements, "data");

  const std::size_t step = stride / sizeof(double);
  const count_t accesses_per_thread = 500000;
  double checksum = 0.0;
  rt.parallel([&](core::ThreadCtx& ctx) {
    auto view = ctx.view(data);
    // Each thread walks its own offset lane so all TLBs stay busy.
    std::size_t idx = ctx.tid() * 8;
    double local = 0.0;
    for (count_t i = 0; i < accesses_per_thread; ++i) {
      local += view.load(idx);
      idx += step;
      if (idx >= elements) idx -= elements;
    }
    const double total = ctx.reduce(local, std::plus<>{});
    if (ctx.tid() == 0) checksum = total;
  });
  (void)checksum;

  rt.finish_seconds();
  const sim::Machine& m = *rt.machine();
  return Point{static_cast<double>(m.total_cycles()) /
                   static_cast<double>(accesses_per_thread),
               m.totals().dtlb_walk_total()};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"platform", "mb", "threads"});
  const sim::ProcessorSpec spec = opts.get_name(
      "platform", "opteron", sim::ProcessorSpec::from_key, sim::kPlatformKeys);
  const std::size_t array_bytes =
      MiB(opts.get_unsigned("mb", 48, 65536, 1));  // up to 64 GB
  const auto threads = static_cast<unsigned>(
      opts.get_unsigned("threads", 1, spec.max_threads(), 1));

  std::cout << "stride_explorer: " << spec.name << ", "
            << format_bytes(array_bytes) << " array, " << threads
            << " thread(s)\n\n";

  TextTable table({"stride", "4KB cyc/acc", "4KB walks", "2MB cyc/acc",
                   "2MB walks", "2MB speedup"});
  for (std::size_t stride : {std::size_t{8}, std::size_t{64}, KiB(4), KiB(64),
                             MiB(1), MiB(2), MiB(4)}) {
    const Point p4 = run_stride(spec, PageKind::small4k, array_bytes, stride,
                                threads);
    const Point p2 = run_stride(spec, PageKind::large2m, array_bytes, stride,
                                threads);
    table.add_row({format_bytes(stride), format_ratio(p4.cycles_per_access),
                   format_count(p4.walks), format_ratio(p2.cycles_per_access),
                   format_count(p2.walks),
                   format_ratio(p4.cycles_per_access / p2.cycles_per_access)});
  }
  table.print();
  std::cout << "\nStrides above 4KB defeat small pages; strides above 2MB "
               "defeat large pages too\n(paper §3.2).\n";
  return 0;
}

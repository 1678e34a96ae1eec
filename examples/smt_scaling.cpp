// smt_scaling: the paper's Xeon hyper-threading story as a runnable demo.
//
// Runs one NPB kernel on the simulated Xeon at 1..8 threads with both page
// sizes, showing (a) the 1→4-thread scaling, (b) the 4→8-thread collapse
// caused by the pipeline-flush SMT implementation, and (c) how 2 MB pages
// reduce the long-latency stalls that trigger those flushes.
//
//   $ ./smt_scaling [--kernel=SP] [--klass=R]
#include <iostream>

#include "npb/npb.hpp"
#include "prof/profile.hpp"
#include "support/format.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace lpomp;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"kernel", "klass"});
  const npb::Kernel kernel =
      opts.get_name("kernel", "SP", npb::kernel_from_name, npb::kKernels);
  const npb::Klass klass =
      opts.get_name("klass", "R", npb::klass_from_name, npb::kKlasses);

  std::cout << "smt_scaling: " << npb::kernel_name(kernel) << " class "
            << npb::klass_name(klass) << " on the simulated Xeon (HT)\n\n";

  TextTable table({"threads", "per core", "4KB time", "speedup", "2MB time",
                   "speedup", "2MB improv", "4KB long stalls"});
  double base4k = 0.0, base2m = 0.0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    core::RuntimeConfig cfg;
    cfg.num_threads = threads;
    cfg.sim = core::SimConfig{sim::ProcessorSpec::xeon_ht(), sim::CostModel{}, 0x5eedULL};

    cfg.page_kind = PageKind::small4k;
    const npb::NpbResult r4k = npb::run_kernel(kernel, klass, cfg);
    cfg.page_kind = PageKind::large2m;
    const npb::NpbResult r2m = npb::run_kernel(kernel, klass, cfg);
    if (!r4k.verified || !r2m.verified) {
      std::cerr << "verification failed\n";
      return 1;
    }
    if (threads == 1) {
      base4k = r4k.simulated_seconds;
      base2m = r2m.simulated_seconds;
    }
    table.add_row(
        {std::to_string(threads), threads > 4 ? "2 (SMT)" : "1",
         format_seconds(r4k.simulated_seconds),
         format_ratio(base4k / r4k.simulated_seconds),
         format_seconds(r2m.simulated_seconds),
         format_ratio(base2m / r2m.simulated_seconds),
         format_percent((r4k.simulated_seconds - r2m.simulated_seconds) /
                        r4k.simulated_seconds),
         format_count(
             r4k.profile.count(prof::ProfileReport::kLongStalls))});
  }
  table.print();
  std::cout << "\nAt 8 threads both SMT contexts of each core are active: "
               "every long-latency\nstall flushes the pipeline, so the "
               "machine stops scaling — while 2MB pages,\nby removing page "
               "walks, remove some of those flushes (paper §4.4).\n";
  return 0;
}

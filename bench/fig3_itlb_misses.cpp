// Reproduces Figure 3: aggregate instruction-TLB misses per second of run
// time for BT/CG/FT/SP/MG with 4 threads on the Opteron platform, with the
// application binary in 4 KB pages.
//
// The paper's point is that even the worst application (MG, ≈0.45
// misses/sec) pays ≈90 cycles/sec at a 200-cycle miss penalty — so ITLB
// misses are never worth optimising with large pages, and only the *data*
// TLB matters. The reproduction's simulated runs are shorter than class-B
// wall times, so the absolute rates are scaled up, but the conclusion is
// identical: the per-second miss *cost* is orders of magnitude below the
// 2×10⁹ cycles available per second.
//
// The points are the Figure 5 grid on 4 KB pages, run through the
// scheduler (one per host core at once; the table is identical for any
// worker count).
#include "bench/bench_common.hpp"

using namespace lpomp;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"klass", "kernels", "threads"});
  const npb::Klass klass = bench::klass_from(opts, "R");
  const sim::ProcessorSpec opteron = sim::ProcessorSpec::opteron270();
  const auto threads = static_cast<unsigned>(
      opts.get_unsigned("threads", 4, opteron.max_threads(), 1));

  std::cout << "Figure 3: Aggregate ITLB misses/second, " << threads
            << " threads, " << opteron.name << ", binary in 4KB pages (class "
            << npb::klass_name(klass) << ")\n\n";

  exec::SweepSpec spec = exec::SweepSpec::figure5(klass, threads);
  spec.kernels = bench::kernels_from(opts);
  spec.page_kinds = {PageKind::small4k};
  const exec::SweepResult result = exec::Scheduler().run(spec);
  bench::require_all_verified(result);

  TextTable table({"Application", "ITLB misses", "run (sim s)", "misses/sec",
                   "miss cycles/sec", "fraction of cycle budget"});
  for (const exec::RunRecord& r : result.records) {
    const double rate =
        static_cast<double>(r.itlb_misses) /
        (r.simulated_seconds > 0 ? r.simulated_seconds : 1.0);
    const double cycles_per_sec = rate * 200.0;  // paper's 200-cycle estimate
    table.add_row({r.kernel, std::to_string(r.itlb_misses),
                   format_seconds(r.simulated_seconds), format_ratio(rate),
                   format_ratio(cycles_per_sec),
                   format_percent(cycles_per_sec / 2e9)});
  }
  table.print();
  std::cout << "\nConclusion (as in the paper): the ITLB miss rate is not a "
               "significant overhead;\nlarge pages for the instruction image "
               "are not pursued.\n";
  return 0;
}

// Reproduces Figure 5: data-TLB misses at 4 threads on the Opteron with
// 4 KB and 2 MB pages, normalised to the 4 KB count per application (the
// OProfile "L1 and L2 DTLB miss" event — misses that required a hardware
// page walk).
//
// Runs through the scheduler (--workers= parallel tasks,
// --json=fig5.json records); the walk counts come from the per-run JSON
// counters (dtlb_walks_4k + dtlb_walks_2m).
//
// Shape target (paper §4.4): CG, SP and MG drop by a factor of 10 or more;
// BT and FT by only ~2-3×, matching their smaller performance gains.
#include "bench/bench_common.hpp"

using namespace lpomp;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"klass", "kernels", "threads"}, bench::kPagingKeys,
                     bench::kSchedulerKeys, bench::kJsonKeys);
  const npb::Klass klass = bench::klass_from(opts, "R");
  const auto threads = static_cast<unsigned>(opts.get_unsigned(
      "threads", 4, sim::ProcessorSpec::opteron270().max_threads(), 1));

  exec::SweepSpec spec = exec::SweepSpec::figure5(klass, threads);
  spec.kernels = bench::kernels_from(opts);

  // --paging= swaps the 4KB/2MB columns for one walk-count column per
  // policy, normalised to the first policy listed (layout axis fixed at
  // 4 KB — every policy reinterprets the same address stream).
  const bool paging_axis = bench::add_paging_axis(opts, spec);

  exec::Scheduler scheduler(bench::scheduler_config(opts));
  const exec::SweepResult result = scheduler.run(spec);
  bench::require_all_verified(result);

  const std::string opteron = sim::ProcessorSpec::opteron270().name;
  std::cout << "Figure 5: Normalized DTLB misses at " << threads
            << " threads, " << opteron << " (class " << npb::klass_name(klass)
            << "; " << result.workers << " workers)\n\n";

  const auto walks = [](const exec::RunRecord& r) {
    return r.dtlb_walks_4k + r.dtlb_walks_2m + r.dtlb_walks_1g;
  };
  if (paging_axis) {
    std::vector<std::string> header = {"Application"};
    for (const paging::PolicySpec& p : spec.paging_policies) {
      header.push_back(std::string(p.name()) + " walks");
      header.push_back(std::string(p.name()) + " norm");
    }
    TextTable table(header);
    for (npb::Kernel k : spec.kernels) {
      const std::string kernel = npb::kernel_name(k);
      const exec::RunRecord* base = result.find(
          kernel, opteron, threads, "4KB", spec.paging_policies.front().name());
      std::vector<std::string> row = {kernel};
      for (const paging::PolicySpec& p : spec.paging_policies) {
        const exec::RunRecord* r =
            result.find(kernel, opteron, threads, "4KB", p.name());
        if (r == nullptr || base == nullptr) {
          row.insert(row.end(), {"-", "-"});
          continue;
        }
        const count_t b = walks(*base);
        row.push_back(format_count(walks(*r)));
        row.push_back(b ? format_ratio(static_cast<double>(walks(*r)) /
                                       static_cast<double>(b))
                        : "-");
      }
      table.add_row(std::move(row));
    }
    table.print();
    bench::write_json(opts, result);
    return 0;
  }

  TextTable table({"Application", "4KB misses", "2MB misses",
                   "normalized 4KB", "normalized 2MB", "reduction factor"});
  for (npb::Kernel k : spec.kernels) {
    const std::string kernel = npb::kernel_name(k);
    const exec::RunRecord* r4k = result.find(kernel, opteron, threads, "4KB");
    const exec::RunRecord* r2m = result.find(kernel, opteron, threads, "2MB");
    const count_t m4k = walks(*r4k);
    const count_t m2m = walks(*r2m);
    const double norm2m =
        m4k ? static_cast<double>(m2m) / static_cast<double>(m4k) : 0.0;
    table.add_row({kernel, format_count(m4k), format_count(m2m), "1.00",
                   format_ratio(norm2m),
                   m2m ? format_ratio(static_cast<double>(m4k) /
                                      static_cast<double>(m2m))
                       : "inf"});
  }
  table.print();
  std::cout << "\nPaper: CG/SP/MG reduced ~10x or more; BT/FT by ~2-3x.\n";
  bench::write_json(opts, result);
  return 0;
}

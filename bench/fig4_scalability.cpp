// Reproduces Figure 4: scalability of BT/CG/FT/SP/MG on the Opteron and
// Xeon(+HT) platforms with 4 KB vs 2 MB pages. One sub-table per
// application, mirroring the paper's five sub-plots: run time vs thread
// count for each (platform, page size) series. As in the paper, a single
// thread per core is used up to 4 threads; the Xeon's 8-thread point uses
// two SMT contexts per core.
//
// The whole grid runs through the scheduler: every (kernel,
// platform, threads, page kind) point is an independent task, started in
// grid order by the sweep's own threads (--workers=, default one per host
// core), and results are bit-identical for any worker count.
// --json=fig4.json dumps the per-run records; repeated points already
// computed this process are served from the scheduler's result cache.
//
// Shape targets (paper §4.4): CG/SP/MG improve ~15-25% at 4 threads on the
// Opteron with 2 MB pages; BT and FT see no significant change; both
// platforms scale 1→4; the Xeon fails to scale 4→8 because its SMT flushes
// the pipeline on context switches, but 2 MB pages still help SP at 8
// threads.
#include "bench/bench_common.hpp"

using namespace lpomp;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"klass", "kernels"}, bench::kPagingKeys,
                     bench::kSchedulerKeys, bench::kJsonKeys);
  const npb::Klass klass = bench::klass_from(opts, "R");

  exec::SweepSpec spec = exec::SweepSpec::figure4(klass);
  spec.kernels = bench::kernels_from(opts);

  // --paging=native,hugetlb2m,huge1g,thp swaps the 4KB/2MB layout columns
  // for paging-policy columns: the layout axis collapses to 4 KB (every
  // policy reinterprets the same address stream) and each sub-table shows
  // run time per policy with improvement vs the first policy listed.
  const bool paging_axis = bench::add_paging_axis(opts, spec);

  exec::Scheduler scheduler(bench::scheduler_config(opts));
  const exec::SweepResult result = scheduler.run(spec);
  bench::require_all_verified(result);

  std::cout << "Figure 4: Scalability with "
            << (paging_axis ? "paging policies" : "4KB and 2MB pages")
            << " (class " << npb::klass_name(klass)
            << "; times in simulated seconds; " << result.workers
            << " workers, " << format_seconds(result.wall_ms / 1e3)
            << "s wall)\n";

  const std::string opteron = sim::ProcessorSpec::opteron270().name;
  const std::string xeon = sim::ProcessorSpec::xeon_ht().name;
  if (paging_axis) {
    for (npb::Kernel k : spec.kernels) {
      const std::string kernel = npb::kernel_name(k);
      std::cout << "\n--- " << kernel << " (Opteron) ---\n";
      std::vector<std::string> header = {"threads"};
      for (const paging::PolicySpec& p : spec.paging_policies) {
        header.push_back(p.name());
      }
      for (std::size_t i = 1; i < spec.paging_policies.size(); ++i) {
        header.push_back(std::string(spec.paging_policies[i].name()) +
                         " improv");
      }
      TextTable table(header);
      for (unsigned threads : {1u, 2u, 4u, 8u}) {
        const exec::RunRecord* base =
            result.find(kernel, opteron, threads, "4KB",
                        spec.paging_policies.front().name());
        if (base == nullptr) continue;
        std::vector<std::string> row{std::to_string(threads)};
        for (const paging::PolicySpec& p : spec.paging_policies) {
          const exec::RunRecord* r =
              result.find(kernel, opteron, threads, "4KB", p.name());
          row.push_back(r ? format_seconds(r->simulated_seconds) : "-");
        }
        for (std::size_t i = 1; i < spec.paging_policies.size(); ++i) {
          const exec::RunRecord* r = result.find(
              kernel, opteron, threads, "4KB", spec.paging_policies[i].name());
          row.push_back(r ? bench::improvement(base->simulated_seconds,
                                               r->simulated_seconds)
                          : "-");
        }
        table.add_row(std::move(row));
      }
      table.print();
    }
    bench::write_json(opts, result);
    return 0;
  }
  for (npb::Kernel k : spec.kernels) {
    const std::string kernel = npb::kernel_name(k);
    std::cout << "\n--- " << kernel << " ---\n";
    TextTable table({"threads", "opteron-4KB", "opteron-2MB", "opt. improv",
                     "xeon-4KB", "xeon-2MB", "xeon improv"});
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      std::vector<std::string> row{std::to_string(threads)};
      const exec::RunRecord* o4k = result.find(kernel, opteron, threads, "4KB");
      const exec::RunRecord* o2m = result.find(kernel, opteron, threads, "2MB");
      if (o4k != nullptr && o2m != nullptr) {
        row.push_back(format_seconds(o4k->simulated_seconds));
        row.push_back(format_seconds(o2m->simulated_seconds));
        row.push_back(bench::improvement(o4k->simulated_seconds,
                                         o2m->simulated_seconds));
      } else {
        row.insert(row.end(), {"-", "-", "-"});
      }
      const exec::RunRecord* x4k = result.find(kernel, xeon, threads, "4KB");
      const exec::RunRecord* x2m = result.find(kernel, xeon, threads, "2MB");
      row.push_back(format_seconds(x4k->simulated_seconds));
      row.push_back(format_seconds(x2m->simulated_seconds));
      row.push_back(bench::improvement(x4k->simulated_seconds,
                                       x2m->simulated_seconds));
      table.add_row(std::move(row));
    }
    table.print();
  }
  bench::write_json(opts, result);
  return 0;
}

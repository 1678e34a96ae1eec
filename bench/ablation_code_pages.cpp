// Ablation for §4.3 "Impact of large pages on Instruction Misses": the
// paper observes that every NPB binary is smaller than 2 MB, so placing the
// text in one huge page would eliminate ITLB misses entirely — but the
// measured ITLB miss rate is already so low (Figure 3) that it is not worth
// pursuing. This bench runs both placements and confirms the decision: the
// end-to-end difference is lost in the noise floor.
//
// The points are the Figure 5 grid on 4 KB data pages, each run twice
// through the scheduler: code on 4 KB pages, then on one 2 MB page.
#include "bench/bench_common.hpp"

using namespace lpomp;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"klass", "kernels"});
  const npb::Klass klass = bench::klass_from(opts, "R");
  const sim::ProcessorSpec opteron = sim::ProcessorSpec::opteron270();

  std::cout << "Ablation (paper §4.3): application binary in 4KB pages vs "
               "one 2MB page\n(data in 4KB pages throughout; 4 threads, "
            << opteron.name << ", class " << npb::klass_name(klass) << ")\n\n";

  TextTable table({"Application", "ITLB misses (4KB code)",
                   "ITLB misses (2MB code)", "time (4KB code)",
                   "time (2MB code)", "speedup"});
  exec::SweepSpec spec = exec::SweepSpec::figure5(klass, 4);
  spec.kernels = bench::kernels_from(opts);
  spec.page_kinds = {PageKind::small4k};
  // Each point as (4KB code, 2MB code), adjacent in task order.
  std::vector<exec::RunTask> tasks;
  for (const exec::RunTask& task : spec.expand()) {
    tasks.push_back(task);
    tasks.push_back(task);
    tasks.back().code_page_kind = PageKind::large2m;
  }
  const exec::SweepResult result = exec::Scheduler().run(tasks);
  bench::require_all_verified(result);

  for (std::size_t i = 0; i < result.records.size(); i += 2) {
    const exec::RunRecord& rs = result.records[i];
    const exec::RunRecord& rl = result.records[i + 1];
    table.add_row({rs.kernel, std::to_string(rs.itlb_misses),
                   std::to_string(rl.itlb_misses),
                   format_seconds(rs.simulated_seconds),
                   format_seconds(rl.simulated_seconds),
                   format_percent((rs.simulated_seconds -
                                   rl.simulated_seconds) /
                                  rs.simulated_seconds)});
  }
  table.print();
  std::cout << "\nA 2MB code page removes the (already tiny) ITLB misses but "
               "moves run time by\nwell under a percent — the paper's reason "
               "for not pursuing large code pages\n(\"we do not pursue this "
               "direction further\", §4.3).\n";
  return 0;
}

// Ablation for §3.2 "SMT DTLB Context Switching Time" / §4.4: how the
// Xeon's pipeline-flush-on-context-switch SMT implementation determines
// 4→8-thread (non-)scaling, by sweeping the flush penalty.
//
// The paper attributes the Xeon's failure to scale from 4 to 8 threads to
// this flush ("we attribute this to the implementation of SMT on the Intel
// Xeons which flush the entire pipeline on a thread context switch"). With
// the penalty at 0 the model degenerates to ideal (Niagara-style) SMT and
// 8 threads help; as the penalty grows, 8 threads become a slowdown — and
// 2 MB pages claw some of it back by removing page-walk long stalls, which
// is why SP still improves 13% at 8 threads in the paper.
//
// Uses the scheduler's explicit task-list API: every (flush, page kind)
// cell is an independent RunTask carrying its own CostModel, so the whole
// sweep fans out across --workers= and each distinct cost model gets its
// own result-cache entry.
#include "bench/bench_common.hpp"

using namespace lpomp;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"klass", "kernels"}, bench::kSchedulerKeys,
                     bench::kJsonKeys);
  const npb::Klass klass = bench::klass_from(opts, "R");
  // SP, the kernel §4.4 discusses, unless --kernels= names another.
  const npb::Kernel kernel = opts.get("kernels", "").empty()
                                 ? npb::Kernel::SP
                                 : bench::kernels_from(opts).front();
  const std::vector<cycles_t> flushes = {0, 50, 100, 200, 400, 800};

  std::cout << "Ablation (paper §4.4): Xeon 8-thread scaling vs SMT "
               "pipeline-flush penalty (" << npb::kernel_name(kernel)
            << ", class " << npb::klass_name(klass) << ")\n\n";

  const sim::ProcessorSpec xeon = sim::ProcessorSpec::xeon_ht();
  auto task_for = [&](unsigned threads, PageKind kind, cycles_t flush) {
    exec::RunTask task;
    task.kernel = kernel;
    task.klass = klass;
    task.spec = xeon;
    task.cost.smt_flush = flush;
    task.threads = threads;
    task.page_kind = kind;
    return task;
  };

  // 4-thread baselines (flush cost irrelevant: one thread per core) plus
  // the full 8-thread flush × page-kind grid, as one parallel bag.
  std::vector<exec::RunTask> tasks;
  tasks.push_back(task_for(4, PageKind::small4k, sim::CostModel{}.smt_flush));
  tasks.push_back(task_for(4, PageKind::large2m, sim::CostModel{}.smt_flush));
  for (cycles_t flush : flushes) {
    tasks.push_back(task_for(8, PageKind::small4k, flush));
    tasks.push_back(task_for(8, PageKind::large2m, flush));
  }

  exec::Scheduler scheduler(bench::scheduler_config(opts));
  const exec::SweepResult result = scheduler.run(tasks);
  bench::require_all_verified(result);

  const double t4_4k = result.records[0].simulated_seconds;
  const double t4_2m = result.records[1].simulated_seconds;
  std::cout << "4-thread baseline: 4KB " << format_seconds(t4_4k) << "s, 2MB "
            << format_seconds(t4_2m) << "s\n\n";

  TextTable table({"flush cycles", "8T 4KB", "8T/4T 4KB", "8T 2MB",
                   "8T/4T 2MB", "2MB improv at 8T"});
  for (std::size_t i = 0; i < flushes.size(); ++i) {
    const double t8_4k = result.records[2 + 2 * i].simulated_seconds;
    const double t8_2m = result.records[3 + 2 * i].simulated_seconds;
    table.add_row({std::to_string(flushes[i]), format_seconds(t8_4k),
                   format_ratio(t8_4k / t4_4k), format_seconds(t8_2m),
                   format_ratio(t8_2m / t4_2m),
                   bench::improvement(t8_4k, t8_2m)});
  }
  table.print();
  std::cout << "\n8T/4T > 1 means eight threads run *slower* than four — the "
               "paper's observed\nXeon behaviour emerges once the flush "
               "penalty is non-trivial.\n";
  bench::write_json(opts, result);
  return 0;
}

#include "exec/sweep.hpp"

namespace lpomp::exec {

std::string RunTask::label() const {
  std::string s = npb::kernel_name(kernel);
  s += '.';
  s += npb::klass_name(klass);
  s += '/';
  s += spec.name;
  s += '/';
  s += std::to_string(threads);
  s += "T/";
  s += page_kind_name(page_kind);
  if (!paging.is_native()) {
    s += '/';
    s += paging.name();
  }
  return s;
}

paging::PolicySpec RunTask::simulated_paging() const {
  const mem::Region pool = npb::pool_region(kernel, klass, page_kind);
  return paging.on_region(page_kind, pool.base, pool.length);
}

core::RuntimeConfig RunTask::runtime_config() const {
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.page_kind = page_kind;
  cfg.code_page_kind = code_page_kind;
  cfg.paging = simulated_paging();
  cfg.sim = core::SimConfig{spec, cost, seed};
  return cfg;
}

std::vector<RunTask> SweepSpec::expand() const {
  std::vector<RunTask> tasks;
  std::uint64_t index = 0;
  for (npb::Kernel kernel : kernels) {
    for (const sim::ProcessorSpec& platform : platforms) {
      for (unsigned t : threads) {
        if (t == 0 || t > platform.max_threads()) continue;
        for (PageKind kind : page_kinds) {
          for (const paging::PolicySpec& policy : paging_policies) {
            RunTask task;
            task.kernel = kernel;
            task.klass = klass;
            task.spec = platform;
            task.cost = cost;
            task.threads = t;
            task.page_kind = kind;
            task.code_page_kind = code_page_kind;
            task.seed =
                per_task_seeds ? splitmix64(base_seed + index) : base_seed;
            task.paging = policy;
            tasks.push_back(std::move(task));
            ++index;
          }
        }
      }
    }
  }
  return tasks;
}

SweepSpec SweepSpec::figure4(npb::Klass klass) {
  SweepSpec spec;
  spec.klass = klass;
  spec.platforms = {sim::ProcessorSpec::opteron270(),
                    sim::ProcessorSpec::xeon_ht()};
  spec.threads = {1, 2, 4, 8};
  return spec;
}

SweepSpec SweepSpec::figure5(npb::Klass klass, unsigned threads) {
  SweepSpec spec;
  spec.klass = klass;
  spec.platforms = {sim::ProcessorSpec::opteron270()};
  spec.threads = {threads};
  return spec;
}

}  // namespace lpomp::exec

// Declarative sweep specifications for the experiment engine.
//
// Every paper artifact (Figures 3-5, the ablations, sweep_all) is a grid of
// independent simulated runs over {benchmark × class × platform × page kind
// × thread count}. A SweepSpec names that grid declaratively; expand() turns
// it into an ordered list of RunTasks, each fully self-contained: a task
// carries its own ProcessorSpec, CostModel and seed, so the engine can run
// tasks in any order, on any number of workers, and each one constructs its
// own AddressSpace/Machine — results are bit-identical to a serial loop.
//
// Seeding is never wall-clock derived. By default every task uses the
// spec's base_seed (0x5eed, matching the historical serial harnesses). With
// per_task_seeds set, each task's seed is derived from base_seed and the
// task's grid index via splitmix64, giving decorrelated but reproducible
// streams for multi-trial sweeps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "npb/npb.hpp"
#include "paging/policy.hpp"
#include "sim/cost_model.hpp"
#include "sim/processor_spec.hpp"

namespace lpomp::exec {

/// One step of the splitmix64 sequence — the per-task seed derivation.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One independent simulated run. Self-contained: everything the run's
/// result depends on is a field here (and therefore part of its cache key).
struct RunTask {
  npb::Kernel kernel = npb::Kernel::CG;
  npb::Klass klass = npb::Klass::R;
  sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
  sim::CostModel cost;
  unsigned threads = 1;
  PageKind page_kind = PageKind::small4k;
  PageKind code_page_kind = PageKind::small4k;
  std::uint64_t seed = 0x5eedULL;

  /// Paging-policy overlay (see paging/policy.hpp). Part of the result's
  /// identity (and cache key).
  paging::PolicySpec paging{};

  /// Human-readable tag, e.g. "CG.R/opteron270/4T/2MB" (plus "/thp" etc.
  /// when a non-native paging policy is set).
  std::string label() const;

  /// The simulated-runtime configuration this task runs under (no trace
  /// sink attached).
  core::RuntimeConfig runtime_config() const;
};

/// A declarative run grid; expand() produces kernels × platforms × threads
/// × page_kinds tasks (thread counts beyond a platform's hardware contexts
/// are skipped, as in the paper's Figure 4 where the Opteron column stops
/// at 4 threads).
struct SweepSpec {
  std::vector<npb::Kernel> kernels = npb::all_kernels();
  npb::Klass klass = npb::Klass::R;
  std::vector<sim::ProcessorSpec> platforms;
  std::vector<unsigned> threads = {1, 2, 4, 8};
  std::vector<PageKind> page_kinds = {PageKind::small4k, PageKind::large2m};
  sim::CostModel cost;
  PageKind code_page_kind = PageKind::small4k;

  /// Paging-policy axis (innermost grid dimension). The default single
  /// native entry reproduces the historical grids exactly.
  std::vector<paging::PolicySpec> paging_policies = {{}};

  std::uint64_t base_seed = 0x5eedULL;
  /// false → every task runs with base_seed (bit-identical to the serial
  /// harnesses); true → per-task seeds via splitmix64(base_seed + index).
  bool per_task_seeds = false;

  /// Grid order: kernel-major, then platform, threads, page kind.
  std::vector<RunTask> expand() const;

  /// The paper's Figure 4 grid (both platforms, full thread sweep).
  static SweepSpec figure4(npb::Klass klass = npb::Klass::R);
  /// The paper's Figure 5 grid (Opteron, one thread count, both page kinds).
  static SweepSpec figure5(npb::Klass klass = npb::Klass::R,
                           unsigned threads = 4);
};

}  // namespace lpomp::exec

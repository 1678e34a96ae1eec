// Quickstart: the lpomp runtime in ~60 lines.
//
// Builds a runtime on the simulated Opteron, allocates a shared array from
// the startup-preallocated pool (4 KB pages first, then 2 MB pages), runs
// the paper's Algorithm 3.1 — a parallel sum over a large array — and
// prints the simulated run time and TLB profile for both page sizes.
//
//   $ ./quickstart [--elements=8000000] [--threads=4]
#include <iostream>

#include "core/parallel_for.hpp"
#include "core/runtime.hpp"
#include "prof/profile.hpp"
#include "support/format.hpp"
#include "support/options.hpp"

using namespace lpomp;

namespace {

double run_sum(PageKind kind, std::size_t elements, unsigned threads,
               double* out_sum) {
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.page_kind = kind;  // the knob under study
  cfg.shared_pool_bytes = elements * sizeof(double) + MiB(4);
  cfg.sim = core::SimConfig{};  // simulated Opteron 270, default cost model

  core::Runtime rt(cfg);
  core::SharedArray<double> array =
      rt.alloc_array<double>(elements, "array");
  for (std::size_t i = 0; i < elements; ++i) array[i] = 1.0 / (1.0 + i % 97);

  // Algorithm 3.1 of the paper:
  //   #pragma omp parallel for reduction(+:sum)
  //   for (i = 0; i < S; i++) sum += array[i];
  double sum = 0.0;
  rt.parallel([&](core::ThreadCtx& ctx) {
    auto view = ctx.view(array);
    double local = 0.0;
    core::for_static(0, static_cast<core::index_t>(elements), ctx.tid(),
                     ctx.nthreads(), [&](core::index_t i) {
                       local += view.load(static_cast<std::size_t>(i));
                     });
    const double total = ctx.reduce(local, std::plus<>{});
    if (ctx.tid() == 0) *out_sum = total;
  });

  const double seconds = rt.finish_seconds();
  std::cout << "\n--- " << page_kind_name(kind) << " pages: "
            << format_seconds(seconds) << " simulated s, sum = " << sum
            << " ---\n";
  prof::ProfileReport::from_machine(*rt.machine(), "quickstart")
      .print(std::cout);
  (void)sum;
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"elements", "threads"});
  const auto elements = static_cast<std::size_t>(
      opts.get_unsigned("elements", 8000000, 1ULL << 33, 1));  // up to 64 GB
  const auto threads = static_cast<unsigned>(opts.get_unsigned(
      "threads", 4, sim::ProcessorSpec::opteron270().max_threads(), 1));

  std::cout << "lpomp quickstart: parallel sum of " << elements
            << " doubles on " << threads << " simulated Opteron threads\n";

  double sum4k = 0.0, sum2m = 0.0;
  const double t4k = run_sum(PageKind::small4k, elements, threads, &sum4k);
  const double t2m = run_sum(PageKind::large2m, elements, threads, &sum2m);

  std::cout << "\nsums match: " << (sum4k == sum2m ? "yes" : "NO") << "\n";
  std::cout << "2MB pages are " << format_percent((t4k - t2m) / t4k)
            << " faster on this streaming workload.\n";
  return sum4k == sum2m ? 0 : 1;
}

// smt_scaling: the paper's Xeon hyper-threading story as a runnable demo.
//
// Runs one NPB kernel on the simulated Xeon at 1..8 threads with both page
// sizes, showing (a) the 1→4-thread scaling, (b) the 4→8-thread collapse
// caused by the pipeline-flush SMT implementation, and (c) how 2 MB pages
// reduce the long-latency stalls that trigger those flushes. Also runs the
// same sweep with the Omni/SCASH-style message-channel barrier to show the
// runtime primitive options.
//
//   $ ./smt_scaling [--kernel=SP] [--klass=R] [--msg-barrier]
#include <iostream>

#include "npb/npb.hpp"
#include "prof/profile.hpp"
#include "support/format.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace lpomp;

namespace {

npb::Kernel kernel_by_name(const std::string& name) {
  for (npb::Kernel k : npb::all_kernels()) {
    if (name == npb::kernel_name(k)) return k;
  }
  throw OptionError("unknown kernel '" + name + "'");
}

npb::Klass klass_by_name(const std::string& name) {
  if (name == "S") return npb::Klass::S;
  if (name == "W") return npb::Klass::W;
  if (name == "R") return npb::Klass::R;
  throw OptionError("unknown class '" + name + "' (valid: S, W, R)");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const npb::Kernel kernel = kernel_by_name(opts.get("kernel", "SP"));
  const npb::Klass klass = klass_by_name(opts.get("klass", "R"));
  const bool msg_barrier = opts.get_flag("msg-barrier");

  std::cout << "smt_scaling: " << npb::kernel_name(kernel) << " class "
            << npb::klass_name(klass) << " on the simulated Xeon (HT)"
            << (msg_barrier ? ", message-channel barrier" : "") << "\n\n";

  TextTable table({"threads", "per core", "4KB time", "speedup", "2MB time",
                   "speedup", "2MB improv", "4KB long stalls"});
  double base4k = 0.0, base2m = 0.0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    core::RuntimeConfig cfg;
    cfg.num_threads = threads;
    cfg.use_msg_channel_barrier = msg_barrier;
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

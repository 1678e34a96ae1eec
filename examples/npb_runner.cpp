// npb_runner: command-line front end for the NPB kernels — run any kernel
// at any class on either simulated platform with either page size, print
// verification, simulated time and the full OProfile-style event report.
//
//   $ ./npb_runner CG --klass=R --platform=opteron --threads=4 --pages=2MB
//   $ ./npb_runner all --klass=S        # smoke-run every kernel
#include <iostream>

#include "npb/npb.hpp"
#include "sim/processor_spec.hpp"
#include "support/format.hpp"
#include "support/options.hpp"

using namespace lpomp;

namespace {

int run_one(npb::Kernel kernel, const Options& opts) {
  const sim::ProcessorSpec spec = opts.get_name(
      "platform", "opteron", sim::ProcessorSpec::from_key, sim::kPlatformKeys);
  core::RuntimeConfig cfg;
  cfg.num_threads = static_cast<unsigned>(
      opts.get_unsigned("threads", 4, spec.max_threads(), 1));
  cfg.page_kind =
      opts.get_name("pages", "4KB", page_kind_from_name, kLayoutPageKinds);
  cfg.sim = core::SimConfig{spec, sim::CostModel{}, 0x5eedULL};
  const npb::Klass klass =
      opts.get_name("klass", "S", npb::klass_from_name, npb::kKlasses);

  std::cout << "Running " << npb::kernel_name(kernel) << " class "
            << npb::klass_name(klass) << " on " << cfg.sim->spec.name << ", "
            << cfg.num_threads << " thread(s), "
            << page_kind_name(cfg.page_kind) << " pages...\n";

  const npb::NpbResult r = npb::run_kernel(kernel, klass, cfg);
  std::cout << "  verification: " << (r.verified ? "PASSED" : "FAILED")
            << " (" << r.verification_detail << ")\n"
            << "  checksum:     " << r.checksum << "\n"
            << "  time:         " << format_seconds(r.simulated_seconds)
            << " simulated seconds\n\n";
  if (opts.get_flag("profile", true)) r.profile.print(std::cout);
  return r.verified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, 1);  // the kernel name, or all
  opts.require_known({"threads", "pages", "platform", "klass", "profile"});
  const std::string which =
      opts.positional().empty() ? "all" : opts.positional().front();
  if (which == "all") {
    int rc = 0;
    for (npb::Kernel k : npb::all_kernels()) rc |= run_one(k, opts);
    return rc;
  }
  if (const std::optional<npb::Kernel> k = npb::kernel_from_name(which)) {
    return run_one(*k, opts);
  }
  std::cerr << npb::kKernels.unknown(which) << " or all\n";
  return 2;
}

// Kernel dispatcher: builds the runtime (with the paper's startup
// preallocation sized to the kernel's inventory), arms the instruction-
// stream model with the kernel's binary size, runs the kernel, and collects
// the simulated time and hardware-event profile.
#include "npb/npb.hpp"

#include "npb/bt.hpp"
#include "npb/cg.hpp"
#include "npb/ft.hpp"
#include "npb/gt.hpp"
#include "npb/gups.hpp"
#include "npb/mg.hpp"
#include "npb/params.hpp"
#include "npb/pc.hpp"
#include "npb/sp.hpp"
#include "support/error.hpp"

namespace lpomp::npb {

NpbResult run_kernel(Kernel kernel, Klass klass, core::RuntimeConfig config) {
  config.shared_pool_bytes = pool_bytes_for(kernel, klass);
  core::Runtime rt(config);
  // PolicySpec::on_region picks a run's overlay from pool_region; a
  // runtime that mapped the pool elsewhere would make that choice wrong.
  const mem::Region pool = pool_region(kernel, klass, config.page_kind);
  LPOMP_CHECK_MSG(rt.shared_allocator().region_base() == pool.base &&
                      rt.shared_allocator().capacity() == pool.length,
                  "shared pool is not at npb::pool_region");

  const CodeModel cm = code_model(kernel);
  rt.attach_code_model(static_cast<std::size_t>(binary_bytes(kernel)),
                       cm.jump_period, cm.cold_fraction,
                       config.code_page_kind);

  NpbResult result;
  switch (kernel) {
    case Kernel::BT: result = run_bt(rt, klass); break;
    case Kernel::CG: result = run_cg(rt, klass); break;
    case Kernel::FT: result = run_ft(rt, klass); break;
    case Kernel::SP: result = run_sp(rt, klass); break;
    case Kernel::MG: result = run_mg(rt, klass); break;
    case Kernel::GUPS: result = run_gups(rt, klass); break;
    case Kernel::GT: result = run_gt(rt, klass); break;
    case Kernel::PC: result = run_pc(rt, klass); break;
  }

  result.simulated_seconds = rt.finish_seconds();
  if (const sim::Machine* m = rt.machine()) {
    result.profile = prof::ProfileReport::from_machine(
        *m, std::string(kernel_name(kernel)) + "." + klass_name(klass));
  }
  return result;
}

}  // namespace lpomp::npb

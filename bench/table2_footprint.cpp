// Reproduces Table 2: "Application Memory Footprint" — the instruction
// (binary) and data footprints of the five NAS benchmarks at class B,
// computed from the same static-allocation inventories the kernels use.
//
// Paper comparison note (see EXPERIMENTS.md): the paper's data column is
// consistently ≈2× the NPB static allocation; the Omni/SCASH shared image
// is a memory-mapped file shared by all processes, so resident accounting
// sees it once as page cache and once as mapped data. We print the
// allocation image itself.
#include "bench/bench_common.hpp"

using namespace lpomp;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"klass", "detail"});
  const npb::Klass klass = bench::klass_from(opts, "B");

  std::cout << "Table 2: Application Memory Footprint (class "
            << npb::klass_name(klass) << ")\n\n";

  TextTable table({"", "Instruction", "Data", "Data (paper, class B)"});
  // The paper's kernels (BT, CG, FT, SP, MG) only; GUPS, GT and PC get "-".
  const char* paper[] = {"371MB", "725MB", "2.4GB", "387MB", "884MB"};
  std::size_t i = 0;
  for (npb::Kernel k : npb::all_kernels()) {
    table.add_row({std::string(npb::kernel_name(k)) + " (" +
                       npb::klass_name(klass) + ")",
                   format_bytes(npb::binary_bytes(k)),
                   format_bytes(npb::data_footprint_bytes(k, klass)),
                   i < std::size(paper) ? paper[i] : "-"});
    ++i;
  }
  table.print();

  if (opts.get_flag("detail")) {
    for (npb::Kernel k : npb::all_kernels()) {
      std::cout << "\n" << npb::kernel_name(k) << " allocation inventory:\n";
      for (const npb::ArrayInfo& a : npb::array_inventory(k, klass)) {
        std::cout << "  " << a.name << ": " << format_bytes(a.bytes) << "\n";
      }
    }
  }
  return 0;
}

// Reproduces Table 1: "Processor TLB Sizes and Coverage" — the TLB entry
// counts of the Intel Xeon and AMD Opteron platforms for 4 KB and 2 MB
// pages, and the address-space reach (coverage) of the data TLBs. The
// values come from the same ProcessorSpec structures that parameterise the
// machine simulator, so this table *is* the simulated hardware.
#include "bench/bench_common.hpp"

using namespace lpomp;

namespace {

std::string entries_or_dash(const tlb::TlbGeometry& g) {
  return g.present() ? std::to_string(g.entries) : "-";
}

}  // namespace

int main(int argc, char** argv) {
  Options(argc, argv).require_known({});
  const sim::ProcessorSpec xeon = sim::ProcessorSpec::xeon_ht();
  const sim::ProcessorSpec opteron = sim::ProcessorSpec::opteron270();

  std::cout << "Table 1: Processor TLB Sizes and Coverage\n";
  std::cout << "(entry counts per structure; coverage = largest data-TLB "
               "reach for the page size)\n\n";

  TextTable table({"", xeon.name, opteron.name});
  table.add_row({"ITLB (4KB) Size", std::to_string(xeon.itlb.small4k.entries),
                 std::to_string(opteron.itlb.small4k.entries)});
  table.add_row(
      {"L1DTLB (4KB) Size", std::to_string(xeon.l1_dtlb.small4k.entries),
       std::to_string(opteron.l1_dtlb.small4k.entries)});
  table.add_row(
      {"L1DTLB (2MB) Size", std::to_string(xeon.l1_dtlb.large2m.entries),
       std::to_string(opteron.l1_dtlb.large2m.entries)});
  table.add_row({"L2DTLB (4KB) Size",
                 xeon.l2_dtlb ? entries_or_dash(xeon.l2_dtlb->small4k) : "-",
                 opteron.l2_dtlb ? entries_or_dash(opteron.l2_dtlb->small4k)
                                 : "-"});
  table.add_row({"L2DTLB (2MB) Size",
                 xeon.l2_dtlb ? entries_or_dash(xeon.l2_dtlb->large2m) : "-",
                 opteron.l2_dtlb ? entries_or_dash(opteron.l2_dtlb->large2m)
                                 : "-"});
  table.add_row({"DTLB (4KB) Coverage",
                 format_bytes(xeon.dtlb_coverage(PageKind::small4k)),
                 format_bytes(opteron.dtlb_coverage(PageKind::small4k))});
  table.add_row({"DTLB (2MB) Coverage",
                 format_bytes(xeon.dtlb_coverage(PageKind::large2m)),
                 format_bytes(opteron.dtlb_coverage(PageKind::large2m))});
  table.print();

  std::cout << "\nPaper values: Xeon DTLB 128x4KB / 32x2MB -> 512KB / 64MB "
               "coverage;\nOpteron L1 DTLB 32x4KB / 8x2MB, L2 DTLB 512x4KB "
               "(no 2MB entries) -> 16MB 2MB-coverage.\n";
  return 0;
}

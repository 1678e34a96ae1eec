#include "sim/processor_spec.hpp"

namespace lpomp::sim {

namespace {
const tlb::TlbGeometry& config_geometry(const tlb::Tlb::Config& c,
                                        PageKind kind) {
  switch (kind) {
    case PageKind::small4k:
      return c.small4k;
    case PageKind::large2m:
      return c.large2m;
    case PageKind::huge1g:
      return c.huge1g;
  }
  return c.small4k;
}
}  // namespace

std::uint64_t ProcessorSpec::dtlb_coverage(PageKind kind) const {
  std::uint64_t best = config_geometry(l1_dtlb, kind).reach(kind);
  if (l2_dtlb) {
    const tlb::TlbGeometry& g = config_geometry(*l2_dtlb, kind);
    if (g.present()) best = std::max(best, g.reach(kind));
  }
  return best;
}

ProcessorSpec ProcessorSpec::opteron270() {
  ProcessorSpec spec;
  spec.name = "Opteron 270";
  spec.clock_ghz = 2.0;
  spec.sockets = 2;
  spec.cores_per_socket = 2;
  spec.smt_per_core = 1;

  // L1 TLBs are fully associative on K8; the L2 DTLB is 4-way and holds
  // 4 KB translations only (paper §3.2: "The D2TLB in the Opteron does not
  // have any entries for large pages").
  spec.itlb = {"opteron.itlb", {32, 32}, {8, 8}, {0, 0}};
  spec.l1_dtlb = {"opteron.l1dtlb", {32, 32}, {8, 8}, {0, 0}};
  spec.l2_dtlb = tlb::Tlb::Config{"opteron.l2dtlb", {512, 4}, {0, 0}, {0, 0}};

  spec.l1d = {KiB(64), 64, 2};
  spec.l2 = {MiB(1), 64, 16};
  spec.l2_shared_per_chip = false;  // private 1 MB L2 per core
  spec.smt_flush_on_switch = false;
  return spec;
}

ProcessorSpec ProcessorSpec::xeon_ht() {
  ProcessorSpec spec;
  spec.name = "Intel Xeon (HT)";
  spec.clock_ghz = 2.0;
  spec.sockets = 2;
  spec.cores_per_socket = 2;
  spec.smt_per_core = 2;

  // Single-level DTLB: 128×4KB / 32×2MB (paper §3.2). The ITLB on the
  // NetBurst parts holds 64 4 KB entries; large code pages use fragmented
  // entries, modelled as a small dedicated bank.
  spec.itlb = {"xeon.itlb", {64, 64}, {16, 16}, {0, 0}};
  spec.l1_dtlb = {"xeon.dtlb", {128, 128}, {32, 32}, {0, 0}};
  spec.l2_dtlb = std::nullopt;

  spec.l1d = {KiB(16), 64, 8};
  spec.l2 = {MiB(2), 64, 8};
  spec.l2_shared_per_chip = true;  // cores of a chip share the L2
  spec.smt_flush_on_switch = true;
  return spec;
}

ProcessorSpec ProcessorSpec::modern() {
  ProcessorSpec spec;
  spec.name = "Modern (1G+PWC)";
  spec.clock_ghz = 3.5;
  spec.sockets = 1;
  spec.cores_per_socket = 8;
  spec.smt_per_core = 1;

  // Zen/Ice-Lake-class translation machinery: a small fully associative L1
  // DTLB holding all three page sizes, a large set-associative STLB with a
  // dedicated 1 GiB bank, and a page-walk cache so full walks rarely start
  // at the root.
  spec.itlb = {"modern.itlb", {64, 64}, {16, 16}, {8, 8}};
  spec.l1_dtlb = {"modern.l1dtlb", {64, 64}, {32, 32}, {8, 8}};
  spec.l2_dtlb = tlb::Tlb::Config{"modern.l2dtlb", {1536, 12}, {1536, 12},
                                  {16, 4}};
  spec.pwc = {64, 8};

  spec.l1d = {KiB(48), 64, 12};
  spec.l2 = {MiB(1), 64, 16};
  spec.l2_shared_per_chip = false;  // private L2 per core
  spec.smt_flush_on_switch = false;
  return spec;
}

std::optional<ProcessorSpec> ProcessorSpec::from_key(std::string_view key) {
  constexpr ProcessorSpec (*kFactories[])() = {&opteron270, &xeon_ht,
                                                 &modern};
  if (const std::optional<std::size_t> i = kPlatformKeys.parse(key)) {
    return kFactories[*i]();
  }
  return std::nullopt;
}

std::optional<ProcessorSpec> ProcessorSpec::from_name(std::string_view name) {
  for (const char* key : kPlatformKeys.names) {
    if (from_key(key)->name == name) return from_key(key);
  }
  return std::nullopt;
}

}  // namespace lpomp::sim

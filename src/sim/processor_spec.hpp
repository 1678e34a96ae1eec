// Descriptions of the paper's two evaluation platforms (§4.1, Table 1):
//
//  * dual dual-core AMD Opteron 270 — CMP, no SMT, private 1 MB L2 per core,
//    two-level DTLB (L1: 32×4KB + 8×2MB fully associative; L2: 512×4KB,
//    4-way, *no* 2 MB entries).
//  * dual dual-core Intel Xeon with Hyper-Threading — CMT+SMT, L2 shared by
//    the cores of a chip, single-level DTLB (128×4KB + 32×2MB), and an SMT
//    implementation that flushes the pipeline on a thread context switch.
//
// TLB geometries follow the paper's §3.2 text; where the paper is silent
// (associativities, ITLB 2 MB entries) the values are the documented ones
// for Opteron rev E / Xeon (Prescott-based) parts of that era.
#pragma once

#include <optional>
#include <string>

#include "cache/cache.hpp"
#include "support/names.hpp"
#include "tlb/pwc.hpp"
#include "tlb/tlb.hpp"

namespace lpomp::sim {

/// The name table of the platform axis: the short keys of ProcessorSpec's
/// three factories, in order.
inline constexpr NameTable<std::size_t, 3> kPlatformKeys{
    "platform", {"opteron", "xeon", "modern"}};

struct ProcessorSpec {
  std::string name;
  double clock_ghz = 2.0;

  // Topology.
  unsigned sockets = 2;
  unsigned cores_per_socket = 2;
  unsigned smt_per_core = 1;

  // TLB hierarchy (per core; shared by SMT contexts on the same core).
  tlb::Tlb::Config itlb;
  tlb::Tlb::Config l1_dtlb;
  std::optional<tlb::Tlb::Config> l2_dtlb;

  /// Page-walk cache (per core). Absent on the paper's 2007 platforms —
  /// their walkers descend from the root every time; present on modern().
  tlb::PwcConfig pwc;

  // Cache hierarchy. L1 is per core. L2 is per core on the Opteron and
  // shared by all cores of a chip on the Xeon.
  cache::CacheGeometry l1d;
  cache::CacheGeometry l2;
  bool l2_shared_per_chip = false;

  /// True for the Xeon: the SMT implementation flushes the pipeline when it
  /// switches hardware thread contexts (paper §4.4's explanation for the
  /// lack of 4→8-thread scaling).
  bool smt_flush_on_switch = false;

  unsigned total_cores() const { return sockets * cores_per_socket; }
  unsigned total_contexts() const { return total_cores() * smt_per_core; }

  /// Max threads a Figure-4-style sweep runs on this platform.
  unsigned max_threads() const { return total_contexts(); }

  /// Address-space reach of the largest DTLB level holding `kind` entries —
  /// the "Coverage" rows of Table 1.
  std::uint64_t dtlb_coverage(PageKind kind) const;

  /// The paper's two platforms.
  static ProcessorSpec opteron270();
  static ProcessorSpec xeon_ht();

  /// A present-day core for the paging-policy scenarios (DESIGN.md §11):
  /// dedicated 1 GiB DTLB entries and a page-walk cache, neither of which
  /// the 2007 parts have. The paper platforms run the new policies too,
  /// but huge1g walks there always miss the (absent) 1 GiB banks — the
  /// honest null result this spec exists to contrast with.
  static ProcessorSpec modern();

  /// The built-in platform with a key of kPlatformKeys ("opteron"), or
  /// with a full name ("Opteron 270", as a trace records it); nullopt for
  /// anything else.
  static std::optional<ProcessorSpec> from_key(std::string_view key);
  static std::optional<ProcessorSpec> from_name(std::string_view name);
};

}  // namespace lpomp::sim

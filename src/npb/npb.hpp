// NAS Parallel Benchmark kernels (OpenMP versions) re-implemented on the
// lpomp runtime: BT, CG, FT, SP and MG — the five applications of the
// paper's evaluation (§4.2).
//
// Each kernel performs real, self-verifying numerics whose memory-access
// pattern matches the NPB original's character:
//   BT — block-tridiagonal ADI: 5×5 blocks read/written contiguously
//        ("sequentially accesses 5x5 blocks of 8-byte arrays");
//   CG — conjugate gradient: streamed sparse matrix plus random gather
//        into the iterate ("accesses randomly generated matrix entries");
//   FT — 3-D FFT: per-dimension passes whose strides range from unit to
//        ≥ 2 MB ("divides the DFT ... into many smaller DFTs");
//   SP — scalar pentadiagonal ADI: line sweeps along y and z with plane
//        strides far beyond 4 KB;
//   MG — multigrid V-cycles over coarse and fine grids ("tests both short
//        and long distance data movement").
//
// Beyond the paper's five, three irregular-workload kernels widen the axis
// where the paper reports null results (BT/FT barely move under large
// pages because their patterns sit inside TLB reach):
//   GUPS — random table updates from a splitmix64 index stream: every
//          access a singleton touch on a fresh page, TLB reach is
//          everything;
//   GT   — bottom-up BFS over a power-law CSR graph with edge-balanced
//          frontier slices (hoshizora's DiscreteArray idiom);
//   PC   — pointer chasing around a single-cycle permutation: dependent
//          loads that defeat stride-RLE and any prefetcher.
//
// Problem classes: S/W/A/B carry the official NPB sizes (S runs in tests,
// B exists mainly for the Table 2 footprint accounting), and class R is the
// reproduction class used by the figure benches — sized so a full
// simulation sweep runs in seconds while exercising the same TLB pressure
// regimes as class B on the real machines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "prof/profile.hpp"
#include "support/names.hpp"

namespace lpomp::npb {

enum class Kernel { BT, CG, FT, SP, MG, GUPS, GT, PC };
enum class Klass { S, W, A, B, R };

/// The name tables of the kernel and class axes, in enum order: the paper's
/// Table 2 / figure order, then the irregular-workload suite.
inline constexpr NameTable<Kernel, 8> kKernels{
    "kernel", {"BT", "CG", "FT", "SP", "MG", "GUPS", "GT", "PC"}};
inline constexpr NameTable<Klass, 5> kKlasses{"class",
                                              {"S", "W", "A", "B", "R"}};

inline const char* kernel_name(Kernel k) { return kKernels.name(k); }
inline const char* klass_name(Klass k) { return kKlasses.name(k); }
inline std::vector<Kernel> all_kernels() { return kKernels.all(); }
inline std::vector<Klass> all_klasses() { return kKlasses.all(); }

/// Parse kernel_name()/klass_name() output ("CG", "S"); nullopt for
/// anything else, a lower-case "s" included.
inline std::optional<Kernel> kernel_from_name(std::string_view name) {
  return kKernels.parse(name);
}
inline std::optional<Klass> klass_from_name(std::string_view name) {
  return kKlasses.parse(name);
}

/// One named static allocation of a kernel (the Omni-transformed globals).
struct ArrayInfo {
  std::string name;
  std::uint64_t bytes;
};

/// The full static-allocation inventory of `kernel` at `klass` — used both
/// by the kernels to size their SharedArrays and by the Table 2 bench to
/// compute class-B footprints analytically.
std::vector<ArrayInfo> array_inventory(Kernel kernel, Klass klass);

/// Total data footprint (sum of the inventory).
std::uint64_t data_footprint_bytes(Kernel kernel, Klass klass);

/// Size of the application binary (Table 2's "Instruction" column).
std::uint64_t binary_bytes(Kernel kernel);

/// Instruction-stream model parameters (see ThreadSim::attach_code).
struct CodeModel {
  count_t jump_period;
  double cold_fraction;
};
CodeModel code_model(Kernel kernel);

/// Result of one kernel run.
struct NpbResult {
  Kernel kernel = Kernel::CG;
  Klass klass = Klass::S;
  bool verified = false;
  std::string verification_detail;
  double checksum = 0.0;        ///< deterministic numeric fingerprint
  double simulated_seconds = 0.0;
  prof::ProfileReport profile;  ///< hardware-event profile of the run
};

/// Runs `kernel` at `klass` on a runtime built from `config` (threads, page
/// kind and simulation attachment are taken from it; pool sizing is
/// handled internally). Deterministic for fixed (kernel, klass, config).
NpbResult run_kernel(Kernel kernel, Klass klass, core::RuntimeConfig config);

/// Shared-pool bytes a kernel/class needs (inventory + runtime slack).
std::size_t pool_bytes_for(Kernel kernel, Klass klass);

/// The region run_kernel maps the shared pool at on a `layout` run: the
/// pool is the first mapping of its arena, so it starts at the arena base
/// and spans pool_bytes_for rounded up to the layout's page size. It is the
/// run's only data region (the paging-policy overlay's region rule keys on
/// it; DESIGN.md §11). The name is left empty.
mem::Region pool_region(Kernel kernel, Klass klass, PageKind layout);

}  // namespace lpomp::npb

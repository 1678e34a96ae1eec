// Kernel/class metadata: static-allocation inventories (feeding both
// the kernels' allocations and the Table 2 footprint bench), binary sizes,
// and instruction-stream model parameters.
#include "npb/irregular.hpp"
#include "npb/params.hpp"

namespace lpomp::npb {

namespace {

std::vector<ArrayInfo> cg_inventory(const CgParams& p) {
  const auto na = static_cast<std::uint64_t>(p.na);
  // Our generator pairs each off-diagonal entry, plus the diagonal.
  const std::uint64_t nnz = na * static_cast<std::uint64_t>(p.nonzer + 1);
  return {
      {"a", nnz * 8},        // matrix values
      {"colidx", nnz * 4},   // column indices
      {"rowstr", (na + 1) * 4},
      {"x", na * 8},    {"z", na * 8}, {"p", na * 8},
      {"q", na * 8},    {"r", na * 8},
      // makea scratch, statically allocated as in NPB's common block.
      {"arow", nnz * 4}, {"acol", nnz * 4}, {"aelt", nnz * 8},
  };
}

std::vector<ArrayInfo> mg_inventory(const MgParams& p) {
  // u and r exist on every level of the hierarchy; v on the fine grid only.
  // Grids store (n+1)^3 points (including the Dirichlet boundary).
  std::vector<ArrayInfo> inv;
  std::uint64_t hier = 0;
  for (int n = p.n; n >= 2; n /= 2) {
    const auto pts = static_cast<std::uint64_t>(n + 1) * (n + 1) * (n + 1);
    hier += pts * 8;
  }
  const auto fine =
      static_cast<std::uint64_t>(p.n + 1) * (p.n + 1) * (p.n + 1) * 8;
  inv.push_back({"u(levels)", hier});
  inv.push_back({"r(levels)", hier});
  inv.push_back({"v", fine});
  return inv;
}

std::vector<ArrayInfo> ft_inventory(const FtParams& p) {
  const auto n = static_cast<std::uint64_t>(p.nx) * p.ny * p.nz;
  return {
      {"u0", n * 16},        // complex field
      {"u1", n * 16},        // spectrum / work field
      {"twiddle", n * 8},    // evolve phase factors
      {"indexmap", n * 4},
  };
}

std::vector<ArrayInfo> adi_inventory(const AdiParams& p, bool sp_extras) {
  const auto cells = static_cast<std::uint64_t>(p.n) * p.n * p.n;
  std::vector<ArrayInfo> inv = {
      {"u", cells * 5 * 8},
      {"rhs", cells * 5 * 8},
      {"forcing", cells * 5 * 8},
      {"rho_i", cells * 8}, {"us", cells * 8},     {"vs", cells * 8},
      {"ws", cells * 8},    {"qs", cells * 8},     {"square", cells * 8},
  };
  if (sp_extras) {
    inv.push_back({"speed", cells * 8});
    inv.push_back({"ainv", cells * 8});
    // Grid-sized interleaved factorisation array (NPB SP's lhs bands).
    inv.push_back({"lhs", cells * 5 * 8});
  }
  return inv;
}

std::vector<ArrayInfo> gups_inventory(const GupsParams& p) {
  return {{"table", static_cast<std::uint64_t>(p.table_words) * 8}};
}

std::vector<ArrayInfo> gt_inventory(const GraphParams& p) {
  const auto n = static_cast<std::uint64_t>(p.vertices);
  const auto edges = static_cast<std::uint64_t>(
      powerlaw_edge_count(p.vertices, p.dmin, p.dmax));
  return {
      {"rowptr", (n + 1) * 8},
      {"col", edges * 4},
      {"depth", n * 4},
  };
}

std::vector<ArrayInfo> pc_inventory(const ChaseParams& p) {
  return {{"next", static_cast<std::uint64_t>(p.elements) * 8}};
}

}  // namespace

std::vector<ArrayInfo> array_inventory(Kernel kernel, Klass klass) {
  switch (kernel) {
    case Kernel::CG: return cg_inventory(cg_params(klass));
    case Kernel::MG: return mg_inventory(mg_params(klass));
    case Kernel::FT: return ft_inventory(ft_params(klass));
    case Kernel::BT: return adi_inventory(bt_params(klass), false);
    case Kernel::SP: return adi_inventory(sp_params(klass), true);
    case Kernel::GUPS: return gups_inventory(gups_params(klass));
    case Kernel::GT: return gt_inventory(gt_params(klass));
    case Kernel::PC: return pc_inventory(pc_params(klass));
  }
  LPOMP_CHECK(false);
  return {};
}

std::uint64_t data_footprint_bytes(Kernel kernel, Klass klass) {
  std::uint64_t total = 0;
  for (const ArrayInfo& a : array_inventory(kernel, klass)) total += a.bytes;
  return total;
}

std::uint64_t binary_bytes(Kernel kernel) {
  // Table 2's Instruction column: all five binaries are 1.4–1.6 MB. The
  // irregular kernels are tiny loops linked against the same runtime, so
  // their binaries sit at the low end of the same band.
  switch (kernel) {
    case Kernel::BT: return static_cast<std::uint64_t>(1.6 * 1024 * 1024);
    case Kernel::CG: return static_cast<std::uint64_t>(1.4 * 1024 * 1024);
    case Kernel::FT: return static_cast<std::uint64_t>(1.4 * 1024 * 1024);
    case Kernel::SP: return static_cast<std::uint64_t>(1.6 * 1024 * 1024);
    case Kernel::MG: return static_cast<std::uint64_t>(1.4 * 1024 * 1024);
    case Kernel::GUPS: return static_cast<std::uint64_t>(1.2 * 1024 * 1024);
    case Kernel::GT: return static_cast<std::uint64_t>(1.3 * 1024 * 1024);
    case Kernel::PC: return static_cast<std::uint64_t>(1.1 * 1024 * 1024);
  }
  return 0;
}

CodeModel code_model(Kernel kernel) {
  // Figure 3 shows MG with the highest ITLB miss rate (≈0.45/s) and the
  // others lower: MG's V-cycle hops between per-level routines far more
  // often than the single-loop kernels, so its control flow leaves the hot
  // pages more often and strays further (higher cold fraction).
  switch (kernel) {
    case Kernel::BT: return {200000, 0.04};
    case Kernel::CG: return {90000, 0.08};
    case Kernel::FT: return {120000, 0.06};
    case Kernel::SP: return {160000, 0.05};
    case Kernel::MG: return {40000, 0.15};
    // The irregular kernels are single tight loops: control flow almost
    // never leaves the hot pages, so their data-side TLB behaviour is
    // measured against a near-silent instruction stream.
    case Kernel::GUPS: return {220000, 0.02};
    case Kernel::GT: return {70000, 0.10};
    case Kernel::PC: return {240000, 0.02};
  }
  return {100000, 0.05};
}

std::size_t pool_bytes_for(Kernel kernel, Klass klass) {
  const std::uint64_t data = data_footprint_bytes(kernel, klass);
  // Allocator alignment, FFT line scratch, and rounding slack.
  return static_cast<std::size_t>(data + data / 8 + MiB(4));
}

mem::Region pool_region(Kernel kernel, Klass klass, PageKind layout) {
  const std::size_t psize = page_size(layout);
  const std::size_t bytes = pool_bytes_for(kernel, klass);
  return {mem::AddressSpace::arena_base(layout),
          (bytes + psize - 1) / psize * psize, layout, {}};
}

}  // namespace lpomp::npb

// mpi_cg: a distributed conjugate-gradient solver on the intra-node MPI
// layer — the full §6 future-work scenario: the same CG computation the
// paper's OpenMP evaluation centres on, rewritten rank-parallel with
// allgather/allreduce collectives, timed with 4 KB vs 2 MB pages.
//
// Each rank owns a contiguous block of rows of a random sparse SPD matrix
// (same generator as the NPB CG kernel). Per iteration:
//   allgather(p)   — everyone needs the whole direction vector;
//   local  q = A p — streamed matrix + random gathers;
//   allreduce(p·q), allreduce(r·r) — scalar reductions.
//
//   $ ./mpi_cg [--ranks=4] [--na=32768] [--iters=10]
#include <cmath>
#include <sstream>
#include <iostream>
#include <vector>

#include "mpi/mpi.hpp"
#include "support/format.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace lpomp;

namespace {

struct Csr {
  std::vector<std::int64_t> rowstr;
  std::vector<std::int32_t> colidx;
  std::vector<double> values;
};

/// Random symmetric diagonally-dominant matrix (see npb/cg.cpp makea).
Csr make_matrix(std::int64_t na, int nonzer) {
  Rng rng(0xC6A4A7935BD1E995ULL);
  std::vector<std::vector<std::pair<std::int32_t, double>>> rows(
      static_cast<std::size_t>(na));
  for (std::int64_t k = 0; k < na * nonzer / 2; ++k) {
    const auto i = static_cast<std::int64_t>(rng.next_below(na));
    const auto j = static_cast<std::int64_t>(rng.next_below(na));
    if (i == j) continue;
    const double v = rng.next_double(-0.5, 0.5);
    rows[static_cast<std::size_t>(i)].emplace_back(static_cast<std::int32_t>(j), v);
    rows[static_cast<std::size_t>(j)].emplace_back(static_cast<std::int32_t>(i), v);
  }
  Csr m;
  m.rowstr.push_back(0);
  for (std::int64_t i = 0; i < na; ++i) {
    double dom = 20.0;
    for (auto [j, v] : rows[static_cast<std::size_t>(i)]) dom += std::abs(v);
    m.colidx.push_back(static_cast<std::int32_t>(i));
    m.values.push_back(dom);
    for (auto [j, v] : rows[static_cast<std::size_t>(i)]) {
      m.colidx.push_back(j);
      m.values.push_back(v);
    }
    m.rowstr.push_back(static_cast<std::int64_t>(m.values.size()));
  }
  return m;
}

struct Result {
  double seconds;
  double residual;
  count_t walks;
};

Result run_cg(PageKind kind, unsigned ranks, std::int64_t na, int iters) {
  const Csr host = make_matrix(na, 6);

  core::RuntimeConfig cfg;
  cfg.num_threads = ranks;
  cfg.page_kind = kind;
  cfg.shared_pool_bytes =
      host.values.size() * 12 + static_cast<std::size_t>(na) * 8 * 8 + MiB(16);
  cfg.sim = core::SimConfig{sim::ProcessorSpec::opteron270(),
                            sim::CostModel{}, 0xC6ULL};
  core::Runtime rt(cfg);
  mpi::Communicator comm(rt, 4096, 4);

  // Shared (instrumented) copies of the matrix and vectors.
  auto a = rt.alloc_array<double>(host.values.size(), "a");
  auto colidx = rt.alloc_array<std::int32_t>(host.colidx.size(), "colidx");
  auto rowstr = rt.alloc_array<std::int64_t>(host.rowstr.size(), "rowstr");
  auto p = rt.alloc_array<double>(static_cast<std::size_t>(na), "p");
  auto q = rt.alloc_array<double>(static_cast<std::size_t>(na), "q");
  auto r = rt.alloc_array<double>(static_cast<std::size_t>(na), "r");
  auto x = rt.alloc_array<double>(static_cast<std::size_t>(na), "x");
  std::copy(host.values.begin(), host.values.end(), a.raw());
  std::copy(host.colidx.begin(), host.colidx.end(), colidx.raw());
  std::copy(host.rowstr.begin(), host.rowstr.end(), rowstr.raw());

  const std::int64_t per_rank = na / ranks;
  LPOMP_CHECK_MSG(na % ranks == 0, "na must divide by ranks");

  double final_res2 = 0.0;
  rt.parallel([&](core::ThreadCtx& ctx) {
    const auto me = static_cast<std::int64_t>(ctx.tid());
    const std::int64_t lo = me * per_rank, hi = lo + per_rank;
    auto av = ctx.view(a);
    auto cv = ctx.view(colidx);
    auto rsv = ctx.view(rowstr);
    auto pv = ctx.view(p);
    auto qv = ctx.view(q);
    auto rv = ctx.view(r);
    auto xv = ctx.view(x);

    // b = 1; x = 0; r = b; p = r.
    for (std::int64_t i = lo; i < hi; ++i) {
      xv.store(static_cast<std::size_t>(i), 0.0);
      rv.store(static_cast<std::size_t>(i), 1.0);
      pv.store(static_cast<std::size_t>(i), 1.0);
    }
    double rho = static_cast<double>(na);

    for (int it = 0; it < iters; ++it) {
      // Everyone needs all of p for the gathers.
      comm.allgather(ctx, p.raw(), static_cast<std::size_t>(per_rank));

      double pq = 0.0;
      for (std::int64_t i = lo; i < hi; ++i) {
        const auto k0 = rsv.load(static_cast<std::size_t>(i));
        const auto k1 = rsv.load(static_cast<std::size_t>(i) + 1);
        double sum = 0.0;
        for (std::int64_t k = k0; k < k1; ++k) {
          sum += av.load(static_cast<std::size_t>(k)) *
                 pv.load(static_cast<std::size_t>(
                     cv.load(static_cast<std::size_t>(k))));
        }
        ctx.compute(2 * (k1 - k0));
        qv.store(static_cast<std::size_t>(i), sum);
        pq += pv.load(static_cast<std::size_t>(i)) * sum;
      }
      comm.allreduce_sum(ctx, &pq, 1);
      const double alpha = rho / pq;

      double rho_new = 0.0;
      for (std::int64_t i = lo; i < hi; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        xv.store(ui, xv.load(ui) + alpha * pv.load(ui));
        const double ri = rv.load(ui) - alpha * qv.load(ui);
        rv.store(ui, ri);
        rho_new += ri * ri;
      }
      ctx.compute(6 * per_rank);
      comm.allreduce_sum(ctx, &rho_new, 1);
      const double beta = rho_new / rho;
      rho = rho_new;
      for (std::int64_t i = lo; i < hi; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        pv.store(ui, rv.load(ui) + beta * pv.load(ui));
      }
      ctx.compute(2 * per_rank);
    }
    if (ctx.tid() == 0) final_res2 = rho;
  });

  Result out;
  out.seconds = rt.finish_seconds();
  out.residual = std::sqrt(final_res2 / static_cast<double>(na));
  out.walks = rt.machine()->totals().dtlb_walk_total();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"ranks", "na", "iters"});
  const auto ranks = static_cast<unsigned>(opts.get_unsigned(
      "ranks", 4, sim::ProcessorSpec::opteron270().max_threads(), 1));
  const auto na =
      static_cast<std::int64_t>(opts.get_unsigned("na", 32768, 1 << 24, 1));
  const auto iters =
      static_cast<int>(opts.get_unsigned("iters", 10, 100000, 1));

  if (na % ranks != 0) {
    throw OptionError("--na=" + std::to_string(na) +
                      ": must be a multiple of --ranks=" +
                      std::to_string(ranks));
  }

  std::cout << "mpi_cg: distributed CG, " << ranks << " ranks, n=" << na
            << ", " << iters << " iterations, simulated Opteron\n\n";

  const Result r4 = run_cg(PageKind::small4k, ranks, na, iters);
  const Result r2 = run_cg(PageKind::large2m, ranks, na, iters);
  if (r4.residual > 1e-6 || r2.residual > 1e-6 ||
      r4.residual != r2.residual) {
    std::cerr << "verification failed: residuals " << r4.residual << " / "
              << r2.residual << "\n";
    return 1;
  }

  auto sci = [](double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  TextTable table({"pages", "time (sim s)", "DTLB walks", "rel. residual"});
  table.add_row({"4KB", format_seconds(r4.seconds), format_count(r4.walks),
                 sci(r4.residual)});
  table.add_row({"2MB", format_seconds(r2.seconds), format_count(r2.walks),
                 sci(r2.residual)});
  table.print();
  std::cout << "\n2MB pages speed the MPI CG up by "
            << format_percent((r4.seconds - r2.seconds) / r4.seconds)
            << " — matrix streams, gathers and the message channel all "
               "benefit (paper §6).\n";
  return 0;
}

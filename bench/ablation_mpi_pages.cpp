// The paper's §6 future work, carried out: "we would also like to evaluate
// the benefit of large pages on the performance of other programming
// paradigms such as MPI."
//
// Intra-node MPI moves every byte through a shared-memory channel with two
// copies (sender → channel ring, channel ring → receiver). This bench
// ping-pongs messages of growing size between two ranks of the simulated
// Opteron with the channel backed by 4 KB vs 2 MB pages, and finishes with
// a 4-rank allreduce. Expected: once a message outgrows the DTLB's 4 KB
// reach, the copy loops pay a page walk + prefetcher re-arm every 4 KB and
// huge pages win — the same mechanism as the OpenMP results, now on the
// message-passing substrate.
#include "mpi/mpi.hpp"
#include "prof/profile.hpp"
#include "sim/processor_spec.hpp"
#include "support/format.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

#include <iostream>
#include <vector>

using namespace lpomp;

namespace {

struct RunResult {
  double seconds = 0.0;
  count_t walks = 0;
};

RunResult pingpong(PageKind kind, std::size_t msg_doubles, int rounds) {
  core::RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.page_kind = kind;
  cfg.shared_pool_bytes = msg_doubles * sizeof(double) * 4 + MiB(8);
  cfg.sim = core::SimConfig{sim::ProcessorSpec::opteron270(),
                            sim::CostModel{}, 0x3141ULL};
  core::Runtime rt(cfg);
  mpi::Communicator comm(rt, /*chunk_doubles=*/8192, /*slots=*/4);

  // Source/destination application buffers also live in the pool, so their
  // traffic sees the same page size (as real MPI apps' heaps would).
  core::SharedArray<double> a = rt.alloc_array<double>(msg_doubles, "a");
  core::SharedArray<double> b = rt.alloc_array<double>(msg_doubles, "b");
  for (std::size_t i = 0; i < msg_doubles; ++i) a[i] = static_cast<double>(i);

  rt.parallel([&](core::ThreadCtx& ctx) {
    for (int r = 0; r < rounds; ++r) {
      if (ctx.tid() == 0) {
        comm.send(ctx, 1, r, a, 0, msg_doubles);
        comm.recv(ctx, 1, r, a, 0, msg_doubles);
      } else {
        comm.recv(ctx, 0, r, b, 0, msg_doubles);
        comm.send(ctx, 0, r, b, 0, msg_doubles);
      }
    }
  });
  RunResult result;
  result.seconds = rt.finish_seconds();
  result.walks = rt.machine()->totals().dtlb_walk_total();
  return result;
}

RunResult allreduce(PageKind kind, std::size_t n, int rounds) {
  core::RuntimeConfig cfg;
  cfg.num_threads = 4;
  cfg.page_kind = kind;
  cfg.shared_pool_bytes = n * sizeof(double) * 8 + MiB(8);
  cfg.sim = core::SimConfig{sim::ProcessorSpec::opteron270(),
                            sim::CostModel{}, 0x3141ULL};
  core::Runtime rt(cfg);
  mpi::Communicator comm(rt, 8192, 4);
  core::SharedArray<double> data = rt.alloc_array<double>(n * 4, "vectors");

  rt.parallel([&](core::ThreadCtx& ctx) {
    double* mine = data.raw() + static_cast<std::size_t>(ctx.tid()) * n;
    for (std::size_t i = 0; i < n; ++i) mine[i] = 1.0;
    for (int r = 0; r < rounds; ++r) {
      comm.allreduce_sum(ctx, mine, n);
    }
  });
  RunResult result;
  result.seconds = rt.finish_seconds();
  result.walks = rt.machine()->totals().dtlb_walk_total();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"rounds"});
  const auto rounds =
      static_cast<int>(opts.get_unsigned("rounds", 4, 100000, 1));

  std::cout << "Future work (paper §6): large pages for intra-node MPI\n"
               "(two-copy shared-memory channel, simulated Opteron)\n\n";

  std::cout << "Ping-pong, 2 ranks, " << rounds << " rounds:\n";
  TextTable table({"message", "4KB time", "4KB walks", "2MB time",
                   "2MB walks", "2MB improv"});
  for (std::size_t bytes : {KiB(32), KiB(256), MiB(1), MiB(4), MiB(16)}) {
    const std::size_t n = bytes / sizeof(double);
    const RunResult r4 = pingpong(PageKind::small4k, n, rounds);
    const RunResult r2 = pingpong(PageKind::large2m, n, rounds);
    table.add_row({format_bytes(bytes), format_seconds(r4.seconds),
                   format_count(r4.walks), format_seconds(r2.seconds),
                   format_count(r2.walks),
                   format_percent((r4.seconds - r2.seconds) / r4.seconds)});
  }
  table.print();

  std::cout << "\nAllreduce(sum), 4 ranks, " << rounds << " rounds:\n";
  TextTable table2({"vector", "4KB time", "2MB time", "2MB improv"});
  for (std::size_t bytes : {KiB(256), MiB(2), MiB(8)}) {
    const std::size_t n = bytes / sizeof(double);
    const RunResult r4 = allreduce(PageKind::small4k, n, rounds);
    const RunResult r2 = allreduce(PageKind::large2m, n, rounds);
    table2.add_row({format_bytes(bytes), format_seconds(r4.seconds),
                    format_seconds(r2.seconds),
                    format_percent((r4.seconds - r2.seconds) / r4.seconds)});
  }
  table2.print();

  std::cout << "\nLarge messages stream through the channel at page "
               "granularity: with 4KB pages\nevery page boundary costs a "
               "walk and a prefetcher re-arm on both copies; 2MB\npages "
               "amortise that 512x — the OpenMP result carries over to "
               "MPI.\n";
  return 0;
}

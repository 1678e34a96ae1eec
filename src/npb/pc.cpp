#include "npb/pc.hpp"

#include <sstream>

#include "core/parallel_for.hpp"
#include "npb/irregular.hpp"
#include "npb/params.hpp"

namespace lpomp::npb {

namespace {

using core::ThreadCtx;
using core::index_t;

// Fixed kernel seed — part of the trace stream identity, never the task
// seed (see irregular.hpp).
constexpr std::uint64_t kPcSeed = 0x6C706F6D'50435043ULL;

}  // namespace

NpbResult run_pc(core::Runtime& rt, Klass klass) {
  const ChaseParams prm = pc_params(klass);
  const std::int64_t n = prm.elements;
  auto next =
      rt.alloc_array<std::int64_t>(static_cast<std::size_t>(n), "next");

  // Layout generation is host-side and untimed: a single-cycle permutation
  // means any start index chases through the whole ring, so every thread's
  // chase segment is a legal walk whatever the partition.
  sattolo_cycle(next.raw(), n, kPcSeed);

  std::uint64_t perm_fold = 0;
  std::int64_t stray = 0;
  rt.parallel([&](ThreadCtx& ctx) {
    const unsigned tid = ctx.tid(), nt = ctx.nthreads();
    auto nv = ctx.view(next);
    const core::StaticRange own =
        core::static_partition(0, static_cast<index_t>(n), tid, nt);
    const core::StaticRange hops = core::static_partition(
        0, static_cast<index_t>(prm.total_hops), tid, nt);

    // The chase: every load's address is the previous load's value — the
    // dependent chain no run framing or warm-span proof can batch. The
    // total hop count is split across threads, so simulated access volume
    // is thread-count-invariant.
    index_t idx = own.begin;
    for (index_t h = hops.begin; h < hops.end; ++h) {
      idx = static_cast<index_t>(nv.load(idx));
    }
    ctx.compute(hops.size());

    // Untimed host-side replay of the same segment must land on the same
    // element (catches any lost or phantom simulated access).
    index_t ref = own.begin;
    for (index_t h = hops.begin; h < hops.end; ++h) {
      ref = static_cast<index_t>(next[static_cast<std::size_t>(ref)]);
    }
    const std::int64_t bad = idx == ref ? 0 : 1;

    // Checksum folds the permutation itself (not the chase, whose segment
    // endpoints depend on nt): XOR is commutative, so the fold is
    // bit-identical across thread counts.
    std::uint64_t fold = 0;
    for (index_t i = own.begin; i < own.end; ++i) {
      fold ^= mix64(static_cast<std::uint64_t>(i) * 0x100000001B3ULL ^
                    static_cast<std::uint64_t>(nv.load(i)));
    }
    ctx.compute(own.size());
    const std::uint64_t fold_all = ctx.reduce(
        fold, [](std::uint64_t a, std::uint64_t b) { return a ^ b; });
    const std::int64_t bad_all = ctx.reduce(bad, std::plus<>{});
    if (tid == 0) {
      perm_fold = fold_all;
      stray = bad_all;
    }
  });

  // Host-side cycle check: the walk from 0 must first return to 0 at step
  // exactly n (Sattolo guarantees this; verify rather than trust).
  std::int64_t steps = 0, at = 0;
  do {
    at = next[static_cast<std::size_t>(at)];
    ++steps;
  } while (at != 0 && steps <= n);
  const bool one_cycle = at == 0 && steps == n;

  NpbResult result;
  result.kernel = Kernel::PC;
  result.klass = klass;
  // Keep 52 bits so the double carries the fold exactly.
  result.checksum = static_cast<double>(perm_fold >> 12);
  result.verified = stray == 0 && one_cycle;
  std::ostringstream os;
  os << "fold=" << perm_fold << " stray_chases=" << stray
     << " cycle_len=" << steps << "/" << n;
  result.verification_detail = os.str();
  return result;
}

}  // namespace lpomp::npb

#include "npb/gups.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "core/parallel_for.hpp"
#include "npb/irregular.hpp"
#include "npb/params.hpp"

namespace lpomp::npb {

namespace {

using core::ThreadCtx;
using core::index_t;

// Fixed kernel seed: the index stream is part of the trace stream identity
// (kernel, klass, threads, page kind), so it must never depend on the task
// seed or paging policy.
constexpr std::uint64_t kGupsSeed = 0x6C706F6D'47555053ULL;

// Updates per filter block: its two arrays take 4 KB of each thread's stack.
constexpr std::int64_t kFilterBlock = 256;

/// Calls fn(k, idx), in stream order, for every update k of the stream
/// whose table index idx lands in `own`, and returns how many it called.
/// Each block is first filtered without a branch per update, since at two
/// or more threads whether an update is owned is a coin flip the branch
/// predictor loses, and then applied.
template <typename Fn>
std::int64_t apply_owned_updates(std::int64_t updates, std::uint64_t words,
                                 core::StaticRange own, Fn&& fn) {
  std::int64_t ks[kFilterBlock];
  index_t idxs[kFilterBlock];
  const auto span = static_cast<std::uint64_t>(own.size());
  std::int64_t applied = 0;
  for (std::int64_t first = 0; first < updates; first += kFilterBlock) {
    const std::int64_t last = std::min(updates, first + kFilterBlock);
    std::int64_t kept = 0;
    for (std::int64_t k = first; k < last; ++k) {
      const auto idx = static_cast<index_t>(
          gups_index(kGupsSeed, static_cast<std::uint64_t>(k), words));
      ks[kept] = k;
      idxs[kept] = idx;
      // own.begin <= idx < own.end, as one unsigned compare.
      kept += static_cast<std::uint64_t>(idx - own.begin) < span;
    }
    for (std::int64_t j = 0; j < kept; ++j) fn(ks[j], idxs[j]);
    applied += kept;
  }
  return applied;
}

}  // namespace

NpbResult run_gups(core::Runtime& rt, Klass klass) {
  const GupsParams prm = gups_params(klass);
  const auto words = static_cast<std::uint64_t>(prm.table_words);
  auto table =
      rt.alloc_array<std::uint64_t>(static_cast<std::size_t>(words), "table");

  // Host-side init, untimed — HPCC initialises table[i] = i before the
  // timed region, and the identity makes the undo pass checkable exactly.
  for (std::uint64_t i = 0; i < words; ++i) table[i] = i;

  std::uint64_t pop_total = 0;
  std::int64_t applied_total = 0, mismatches = 0;
  rt.parallel([&](ThreadCtx& ctx) {
    const unsigned tid = ctx.tid(), nt = ctx.nthreads();
    auto tv = ctx.view(table);
    const core::StaticRange own = core::static_partition(
        0, static_cast<index_t>(words), tid, nt);

    // Update pass: every thread scans the full stream (index generation is
    // register arithmetic, charged as compute) and applies only the updates
    // landing in its owned slice — race-free at the cost of nt× redundant
    // stream generation, the standard deterministic-GUPS trade.
    const auto xor_update = [&](std::int64_t k, index_t idx) {
      tv.store(idx, tv.load(idx) ^
                        gups_value(kGupsSeed, static_cast<std::uint64_t>(k)));
    };
    const std::int64_t applied =
        apply_owned_updates(prm.updates, words, own, xor_update);
    ctx.compute(2 * prm.updates);
    ctx.barrier();

    // Checksum: popcount fold over the updated table. Commutative and
    // integer-exact (<= 64 * words < 2^53), so it is bit-identical across
    // thread counts, page sizes and platforms.
    std::uint64_t pop = 0;
    for (index_t i = own.begin; i < own.end; ++i) {
      pop += static_cast<std::uint64_t>(std::popcount(tv.load(i)));
    }
    ctx.compute(own.size());
    const std::uint64_t pop_all =
        ctx.reduce(pop, [](std::uint64_t a, std::uint64_t b) { return a + b; });

    // Verification: XOR is an involution — replaying the stream restores
    // table[i] = i exactly, and the ownership filter must have applied
    // every update exactly once.
    apply_owned_updates(prm.updates, words, own, xor_update);
    ctx.compute(2 * prm.updates);
    ctx.barrier();
    std::int64_t bad = 0;
    for (index_t i = own.begin; i < own.end; ++i) {
      if (tv.load(i) != static_cast<std::uint64_t>(i)) ++bad;
    }
    ctx.compute(own.size());
    const std::int64_t bad_all = ctx.reduce(bad, std::plus<>{});
    const std::int64_t applied_all = ctx.reduce(applied, std::plus<>{});
    if (tid == 0) {
      pop_total = pop_all;
      mismatches = bad_all;
      applied_total = applied_all;
    }
  });

  NpbResult result;
  result.kernel = Kernel::GUPS;
  result.klass = klass;
  result.checksum = static_cast<double>(pop_total);
  result.verified = mismatches == 0 && applied_total == prm.updates;
  std::ostringstream os;
  os << "popcount=" << pop_total << " applied=" << applied_total << "/"
     << prm.updates << " mismatches=" << mismatches;
  result.verification_detail = os.str();
  return result;
}

}  // namespace lpomp::npb

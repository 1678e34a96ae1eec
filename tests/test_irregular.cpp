// Property tests for the irregular-kernel generators (npb/irregular.hpp):
// the power-law degree law + CSR builder, the edge-balanced slicer
// (hoshizora's DiscreteArray idiom), Sattolo's single-cycle shuffle, and
// the GUPS splitmix64 index stream. Everything here is pure integer
// arithmetic, so "deterministic across platforms" reduces to: the same
// (params, seed) must produce byte-identical outputs on every rebuild —
// which the randomized sweeps below check alongside the structural
// invariants. The GupsStream tests pin the GUPS kernel's recorded access
// stream to one rebuilt here from gups_index alone.
//
// Reproduction: failures carry the per-case seed; LPOMP_IRREGULAR_SEED
// overrides the base seed, LPOMP_IRREGULAR_CASES the case count, and
// LPOMP_SEED_CORPUS names a file to which every exercised (case, seed,
// n, dmin, dmax, nslices) tuple is appended.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <vector>

#include "core/parallel_for.hpp"
#include "npb/irregular.hpp"
#include "npb/params.hpp"
#include "sim/processor_spec.hpp"
#include "support/rng.hpp"
#include "trace/recorder.hpp"

namespace lpomp::npb {
namespace {

std::uint64_t base_seed() {
  if (const char* s = std::getenv("LPOMP_IRREGULAR_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 0x1227'5EED'1227'5EEDULL;
}

int case_count() {
  if (const char* s = std::getenv("LPOMP_IRREGULAR_CASES")) {
    return std::atoi(s);
  }
  return 200;
}

struct Csr {
  std::vector<std::int64_t> rowptr;
  std::vector<std::int32_t> col;
};

Csr build(std::int64_t n, std::int64_t dmin, std::int64_t dmax,
          std::uint64_t seed) {
  Csr g;
  g.rowptr.resize(static_cast<std::size_t>(n) + 1);
  g.col.resize(static_cast<std::size_t>(powerlaw_edge_count(n, dmin, dmax)));
  build_powerlaw_csr(g.rowptr.data(), g.col.data(), n, dmin, dmax, seed);
  return g;
}

TEST(IrregularGenerators, DegreeLawShapeAndClosedForm) {
  // deg is monotone non-increasing, hub = dmin + dmax, tail = dmin, and
  // the closed-form edge count equals the naive sum.
  for (const std::int64_t n : {1, 2, 3, 7, 100, 4096, 5000}) {
    for (const auto& [dmin, dmax] :
         std::vector<std::pair<std::int64_t, std::int64_t>>{
             {1, 0}, {3, 512}, {4, 4096}, {8, 65536}}) {
      EXPECT_EQ(powerlaw_degree(0, dmin, dmax), dmin + dmax);
      EXPECT_EQ(powerlaw_degree(n - 1, dmin, dmax),
                dmin + (dmax >> (63 - __builtin_clzll(
                                          static_cast<std::uint64_t>(n)))));
      std::int64_t sum = 0, prev = powerlaw_degree(0, dmin, dmax);
      for (std::int64_t v = 0; v < n; ++v) {
        const std::int64_t d = powerlaw_degree(v, dmin, dmax);
        EXPECT_GE(d, dmin);
        EXPECT_LE(d, prev);
        prev = d;
        sum += d;
      }
      EXPECT_EQ(sum, powerlaw_edge_count(n, dmin, dmax))
          << "n=" << n << " dmin=" << dmin << " dmax=" << dmax;
    }
  }
}

TEST(IrregularGenerators, CsrDegreeSumEqualsEdgeCountRandomized) {
  const std::uint64_t seed0 = base_seed();
  std::ostringstream corpus;
  Rng pick(seed0);
  for (int c = 0; c < case_count(); ++c) {
    const auto n = static_cast<std::int64_t>(1 + pick.next_below(3000));
    const auto dmin = static_cast<std::int64_t>(1 + pick.next_below(6));
    const auto dmax = static_cast<std::int64_t>(pick.next_below(700));
    const std::uint64_t seed = mix64(seed0 ^ static_cast<std::uint64_t>(c));
    corpus << "csr " << c << " 0x" << std::hex << seed << std::dec << ' '
           << n << ' ' << dmin << ' ' << dmax << '\n';
    SCOPED_TRACE("case " + std::to_string(c) + " n=" + std::to_string(n) +
                 " dmin=" + std::to_string(dmin) +
                 " dmax=" + std::to_string(dmax));

    const Csr g = build(n, dmin, dmax, seed);
    // Degree sum == edge count, row by row.
    ASSERT_EQ(g.rowptr.front(), 0);
    ASSERT_EQ(g.rowptr.back(),
              static_cast<std::int64_t>(g.col.size()));
    for (std::int64_t v = 0; v < n; ++v) {
      const auto i = static_cast<std::size_t>(v);
      ASSERT_EQ(g.rowptr[i + 1] - g.rowptr[i],
                powerlaw_degree(v, dmin, dmax));
    }
    // Backbone edge + in-range targets.
    for (std::int64_t v = 0; v < n; ++v) {
      const auto i = static_cast<std::size_t>(v);
      ASSERT_EQ(g.col[static_cast<std::size_t>(g.rowptr[i])], v / 2);
      for (std::int64_t k = g.rowptr[i]; k < g.rowptr[i + 1]; ++k) {
        const std::int32_t u = g.col[static_cast<std::size_t>(k)];
        ASSERT_GE(u, 0);
        ASSERT_LT(u, n);
      }
    }
    // Deterministic: a rebuild with the same seed is byte-identical; a
    // different seed moves at least the hashed entries whenever any exist.
    const Csr again = build(n, dmin, dmax, seed);
    ASSERT_EQ(g.rowptr, again.rowptr);
    ASSERT_EQ(g.col, again.col);
  }
  if (const char* path = std::getenv("LPOMP_SEED_CORPUS")) {
    std::ofstream out(path, std::ios::app);
    out << corpus.str();
  }
}

TEST(IrregularGenerators, SlicesPartitionFrontierExactlyOnceRandomized) {
  const std::uint64_t seed0 = base_seed() ^ 0x5711CEULL;
  std::ostringstream corpus;
  Rng pick(seed0);
  for (int c = 0; c < case_count(); ++c) {
    const auto n = static_cast<std::int64_t>(1 + pick.next_below(3000));
    const auto dmin = static_cast<std::int64_t>(1 + pick.next_below(6));
    const auto dmax = static_cast<std::int64_t>(pick.next_below(700));
    const auto nslices = static_cast<unsigned>(1 + pick.next_below(16));
    const std::uint64_t seed = mix64(seed0 ^ static_cast<std::uint64_t>(c));
    corpus << "slice " << c << " 0x" << std::hex << seed << std::dec << ' '
           << n << ' ' << dmin << ' ' << dmax << ' ' << nslices << '\n';
    SCOPED_TRACE("case " + std::to_string(c) + " n=" + std::to_string(n) +
                 " nslices=" + std::to_string(nslices));

    const Csr g = build(n, dmin, dmax, seed);
    const std::vector<std::int64_t> b =
        edge_balanced_slices(g.rowptr.data(), n, nslices);

    // Boundaries cover the frontier exactly once: nslices+1 monotone
    // boundaries from 0 to n, so each vertex lands in exactly one
    // half-open slice.
    ASSERT_EQ(b.size(), static_cast<std::size_t>(nslices) + 1);
    ASSERT_EQ(b.front(), 0);
    ASSERT_EQ(b.back(), n);
    std::vector<int> owner(static_cast<std::size_t>(n), 0);
    for (unsigned s = 0; s < nslices; ++s) {
      ASSERT_LE(b[s], b[s + 1]);
      for (std::int64_t v = b[s]; v < b[s + 1]; ++v) {
        ++owner[static_cast<std::size_t>(v)];
      }
    }
    for (std::int64_t v = 0; v < n; ++v) {
      ASSERT_EQ(owner[static_cast<std::size_t>(v)], 1) << "vertex " << v;
    }

    // Edge balance: no slice exceeds the ideal share by more than one
    // vertex's worth of edges (a vertex cannot be split).
    const std::int64_t total = g.rowptr.back();
    const std::int64_t ideal = (total + nslices - 1) / nslices;
    const std::int64_t hub = dmin + dmax;
    for (unsigned s = 0; s < nslices; ++s) {
      const std::int64_t edges =
          g.rowptr[static_cast<std::size_t>(b[s + 1])] -
          g.rowptr[static_cast<std::size_t>(b[s])];
      EXPECT_LE(edges, ideal + hub) << "slice " << s;
    }

    // Deterministic for the same inputs.
    ASSERT_EQ(edge_balanced_slices(g.rowptr.data(), n, nslices), b);
  }
  if (const char* path = std::getenv("LPOMP_SEED_CORPUS")) {
    std::ofstream out(path, std::ios::app);
    out << corpus.str();
  }
}

TEST(IrregularGenerators, SattoloIsSingleCycleRandomized) {
  const std::uint64_t seed0 = base_seed() ^ 0xC7C1EULL;
  Rng pick(seed0);
  for (int c = 0; c < case_count(); ++c) {
    const auto n = static_cast<std::int64_t>(1 + pick.next_below(5000));
    const std::uint64_t seed = mix64(seed0 ^ static_cast<std::uint64_t>(c));
    SCOPED_TRACE("case " + std::to_string(c) + " n=" + std::to_string(n));
    std::vector<std::int64_t> next(static_cast<std::size_t>(n));
    sattolo_cycle(next.data(), n, seed);
    // A permutation (every target hit once) that is one cycle (the walk
    // from 0 returns to 0 at step n, not before).
    std::vector<int> hit(static_cast<std::size_t>(n), 0);
    for (const std::int64_t t : next) {
      ASSERT_GE(t, 0);
      ASSERT_LT(t, n);
      ++hit[static_cast<std::size_t>(t)];
    }
    ASSERT_EQ(*std::max_element(hit.begin(), hit.end()), 1);
    std::int64_t at = 0, steps = 0;
    do {
      at = next[static_cast<std::size_t>(at)];
      ++steps;
    } while (at != 0 && steps <= n);
    ASSERT_EQ(steps, n);
    // Deterministic rebuild.
    std::vector<std::int64_t> again(static_cast<std::size_t>(n));
    sattolo_cycle(again.data(), n, seed);
    ASSERT_EQ(next, again);
  }
}

TEST(IrregularGenerators, GupsStreamDeterministicAndInRange) {
  // The index stream is stateless in (seed, k): pinned spot values guard
  // against any platform- or rebuild-dependence, and every index must stay
  // inside the power-of-two table.
  const std::uint64_t words = 1 << 14;
  for (std::uint64_t k = 0; k < 100000; ++k) {
    const std::uint64_t idx = gups_index(0x12345, k, words);
    ASSERT_LT(idx, words);
    ASSERT_EQ(idx, gups_index(0x12345, k, words));
  }
  // Coarse uniformity: over 16 buckets of a small table, no bucket is
  // empty and none exceeds twice the mean — enough to catch a broken mix.
  std::vector<std::int64_t> bucket(16, 0);
  const std::int64_t draws = 1 << 16;
  for (std::int64_t k = 0; k < draws; ++k) {
    ++bucket[static_cast<std::size_t>(gups_index(0xFEED,
        static_cast<std::uint64_t>(k), words)) * 16 / words];
  }
  for (int b = 0; b < 16; ++b) {
    EXPECT_GT(bucket[static_cast<std::size_t>(b)], draws / 32);
    EXPECT_LT(bucket[static_cast<std::size_t>(b)], draws / 8);
  }
}

TEST(IrregularGenerators, KernelClassParamsAreWellFormed) {
  // The kernel-facing contracts the generators assume: power-of-two GUPS
  // tables, dmin >= 1 (backbone edge + strictly increasing rowptr), and
  // int32-safe vertex counts.
  for (const Klass k : {Klass::S, Klass::W, Klass::A, Klass::B, Klass::R}) {
    const GupsParams gp = gups_params(k);
    EXPECT_GT(gp.table_words, 0);
    EXPECT_EQ(gp.table_words & (gp.table_words - 1), 0);
    EXPECT_GT(gp.updates, 0);
    const GraphParams tp = gt_params(k);
    EXPECT_GE(tp.dmin, 1);
    EXPECT_GE(tp.dmax, 0);
    EXPECT_LE(tp.vertices, INT32_MAX);
    const ChaseParams cp = pc_params(k);
    EXPECT_GE(cp.elements, 1);
    EXPECT_GE(cp.total_hops, 1);
  }
}

// The GUPS kernel's fixed stream seed (src/npb/gups.cpp). Pinned here: the
// index stream is part of the trace stream identity, so changing it must
// fail this suite.
constexpr std::uint64_t kGupsSeed = 0x6C706F6D'47555053ULL;

struct GupsRecording {
  NpbResult result;
  trace::Trace trace;
};

GupsRecording record_gups(unsigned threads) {
  trace::TraceRecorder recorder(threads);
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.sim = core::SimConfig{sim::ProcessorSpec::opteron270(), {}, 0x5eedULL};
  cfg.trace_sink = &recorder;
  GupsRecording rec;
  rec.result = run_kernel(Kernel::GUPS, Klass::S, cfg);
  rec.trace = recorder.finish({});
  return rec;
}

/// Thread `tid`'s recorded access events: every event but compute charges
/// and segment markers.
std::vector<trace::Event> touches_of(const trace::Trace& tr, unsigned tid) {
  std::vector<trace::Event> out;
  for (const trace::Event& e : tr.streams[tid]) {
    if (e.kind != trace::Event::Kind::compute &&
        e.kind != trace::Event::Kind::segment) {
      out.push_back(e);
    }
  }
  return out;
}

// Each thread of a GUPS run makes, in order: a load then a store at
// gups_index(k) for every k of the stream landing in its own slice (in
// stream order), one load per word of its slice (the popcount scan), the
// same load/store pairs again (the undo pass), and one load per word of
// its slice (the verify scan). Nothing else reaches the simulator.
TEST(GupsStream, EachThreadTouchesItsOwnedUpdatesInStreamOrder) {
  const GupsParams prm = gups_params(Klass::S);
  const auto words = static_cast<std::uint64_t>(prm.table_words);
  for (const unsigned nt : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(nt));
    const GupsRecording rec = record_gups(nt);
    ASSERT_TRUE(rec.result.verified) << rec.result.verification_detail;
    ASSERT_EQ(rec.trace.streams.size(), nt);

    // The table's base address, from thread 0's first update.
    std::uint64_t first_owned = 0;
    const core::StaticRange own0 = core::static_partition(
        0, static_cast<core::index_t>(words), 0, nt);
    while (static_cast<core::index_t>(gups_index(kGupsSeed, first_owned,
                                                 words)) >= own0.end) {
      ++first_owned;
    }
    const std::vector<trace::Event> t0 = touches_of(rec.trace, 0);
    ASSERT_FALSE(t0.empty());
    const vaddr_t base =
        t0.front().addr - 8 * gups_index(kGupsSeed, first_owned, words);

    std::int64_t applied_sum = 0;
    for (unsigned tid = 0; tid < nt; ++tid) {
      SCOPED_TRACE("tid=" + std::to_string(tid));
      const core::StaticRange own = core::static_partition(
          0, static_cast<core::index_t>(words), tid, nt);
      const auto at = [&](std::uint64_t i) { return base + 8 * i; };
      std::vector<trace::Event> pass;
      for (std::int64_t k = 0; k < prm.updates; ++k) {
        const std::uint64_t idx =
            gups_index(kGupsSeed, static_cast<std::uint64_t>(k), words);
        if (static_cast<core::index_t>(idx) < own.begin ||
            static_cast<core::index_t>(idx) >= own.end) {
          continue;
        }
        pass.push_back(trace::Event::touch_ev(at(idx), PageKind::small4k,
                                              Access::load));
        pass.push_back(trace::Event::touch_ev(at(idx), PageKind::small4k,
                                              Access::store));
      }
      std::vector<trace::Event> scan;
      for (core::index_t i = own.begin; i < own.end; ++i) {
        scan.push_back(trace::Event::touch_ev(
            at(static_cast<std::uint64_t>(i)), PageKind::small4k,
            Access::load));
      }
      std::vector<trace::Event> expected = pass;
      expected.insert(expected.end(), scan.begin(), scan.end());
      expected.insert(expected.end(), pass.begin(), pass.end());
      expected.insert(expected.end(), scan.begin(), scan.end());

      const std::vector<trace::Event> got = touches_of(rec.trace, tid);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i]) << "event " << i;
      }
      applied_sum += static_cast<std::int64_t>(pass.size() / 2);
    }
    EXPECT_EQ(applied_sum, prm.updates);
    EXPECT_NE(rec.result.verification_detail.find(
                  "applied=" + std::to_string(prm.updates) + "/"),
              std::string::npos)
        << rec.result.verification_detail;
  }
}

// Each pass charges the whole stream's index generation as compute on
// every thread, and each scan one cycle per word of the slice: the same
// four charges, in order, at every width.
TEST(GupsStream, ComputeChargesFollowTheStreamAndTheSlice) {
  const GupsParams prm = gups_params(Klass::S);
  for (const unsigned nt : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(nt));
    const GupsRecording rec = record_gups(nt);
    for (unsigned tid = 0; tid < nt; ++tid) {
      const core::StaticRange own =
          core::static_partition(0, prm.table_words, tid, nt);
      std::vector<std::uint64_t> charges;
      for (const trace::Event& e : rec.trace.streams[tid]) {
        if (e.kind == trace::Event::Kind::compute) charges.push_back(e.arg);
      }
      const auto slice = static_cast<std::uint64_t>(own.size());
      const auto stream = static_cast<std::uint64_t>(2 * prm.updates);
      EXPECT_EQ(charges, (std::vector<std::uint64_t>{stream, slice, stream,
                                                     slice}))
          << "tid=" << tid;
    }
  }
}

// Numerics alone, with no simulator attached, at every width the host
// tests reach, including more threads than any modelled platform has.
TEST(GupsStream, VerifiesAtEveryWidth) {
  for (const unsigned nt : {1u, 2u, 3u, 4u, 8u}) {
    core::RuntimeConfig cfg;
    cfg.num_threads = nt;
    const NpbResult r = run_kernel(Kernel::GUPS, Klass::S, cfg);
    EXPECT_TRUE(r.verified) << "threads=" << nt << ": "
                            << r.verification_detail;
  }
}

}  // namespace
}  // namespace lpomp::npb

// lpomp::paging — the paging-policy overlay (DESIGN.md §11).
//
// Unit coverage for the pieces the differential oracle exercises only in
// aggregate: per-policy effective translations, walk truncation (huge1g
// leaves at exactly 2 levels) and synthetic-PTE extension (a 4 KB effective
// view of a 2 MB layout), the deterministic THP fragmentation model
// (seed-keyed reproducibility, sawtooth probabilities), the page-walk
// cache's hit/LRU/flush behaviour (and exact LRU against a model), the
// fingerprint's conditional paging segment, and the end-to-end guarantee
// the subsystem was built around: one grid point per policy is
// bit-identical under all four execution strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <list>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/fingerprint.hpp"
#include "exec/scheduler.hpp"
#include "exec/strategy.hpp"
#include "exec/sweep.hpp"
#include "mem/address_space.hpp"
#include "mem/page_table.hpp"
#include "paging/policy.hpp"
#include "sim/processor_spec.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"
#include "tlb/pwc.hpp"

namespace lpomp {
namespace {

paging::PolicySpec make_policy(paging::Policy p) {
  paging::PolicySpec spec;
  spec.policy = p;
  return spec;
}

TEST(PagingPolicy, NamesRoundTrip) {
  for (const paging::Policy p :
       {paging::Policy::native, paging::Policy::base4k,
        paging::Policy::hugetlb2m, paging::Policy::huge1g,
        paging::Policy::thp}) {
    paging::Policy parsed;
    ASSERT_TRUE(paging::policy_from_name(paging::policy_name(p), parsed));
    EXPECT_EQ(parsed, p);
  }
  paging::Policy parsed;
  EXPECT_FALSE(paging::policy_from_name("2mb", parsed));
  EXPECT_FALSE(paging::policy_from_name("", parsed));
}

TEST(PagingPolicy, NativeIsIdentityOverBothLayouts) {
  const paging::PagingModel m;  // default-constructed == native
  EXPECT_TRUE(m.identity());
  const vaddr_t a = 0x1234'5678;
  const paging::Translation t4k = m.translate(a, PageKind::small4k);
  EXPECT_EQ(t4k.vpn, a >> kSmallPageShift);
  EXPECT_EQ(t4k.kind, PageKind::small4k);
  const paging::Translation t2m = m.translate(a, PageKind::large2m);
  EXPECT_EQ(t2m.vpn, a >> kLargePageShift);
  EXPECT_EQ(t2m.kind, PageKind::large2m);
}

TEST(PagingPolicy, EffectiveTranslationsPerPolicy) {
  const vaddr_t a = (vaddr_t{3} << 30) + (vaddr_t{5} << 21) + 0x1708;
  {
    const paging::PagingModel m(make_policy(paging::Policy::base4k));
    EXPECT_FALSE(m.identity());
    const paging::Translation t = m.translate(a, PageKind::large2m);
    EXPECT_EQ(t.vpn, a >> kSmallPageShift);
    EXPECT_EQ(t.kind, PageKind::small4k);
  }
  {
    const paging::PagingModel m(make_policy(paging::Policy::hugetlb2m));
    const paging::Translation t = m.translate(a, PageKind::small4k);
    EXPECT_EQ(t.vpn, a >> kLargePageShift);
    EXPECT_EQ(t.kind, PageKind::large2m);
  }
  {
    const paging::PagingModel m(make_policy(paging::Policy::huge1g));
    const paging::Translation t = m.translate(a, PageKind::small4k);
    EXPECT_EQ(t.vpn, a >> kHugePageShift1G);
    EXPECT_EQ(t.kind, PageKind::huge1g);
    // Every address within the same 1 GiB frame shares the translation.
    const paging::Translation t2 = m.translate(a + MiB(512), PageKind::small4k);
    EXPECT_EQ(t2.vpn, t.vpn);
  }
}

// --- policy-adjusted walks --------------------------------------------------

struct WalkFixture {
  mem::PhysMem pm{MiB(64)};
  mem::AddressSpace space{pm};
  mem::Region small, large;

  WalkFixture() {
    small = space.map_region(MiB(4), PageKind::small4k, "small");
    large = space.map_region(MiB(4), PageKind::large2m, "large");
  }
};

TEST(PagingWalk, Huge1gTouchesExactlyTwoLevels) {
  WalkFixture f;
  const paging::PagingModel m(make_policy(paging::Policy::huge1g));
  for (const vaddr_t a : {f.small.base, f.small.base + KiB(12),
                          f.large.base + MiB(3)}) {
    const PageKind layout = f.space.kind_at(a);
    const paging::Translation tr = m.translate(a, layout);
    ASSERT_EQ(tr.kind, PageKind::huge1g);
    const mem::WalkResult w = m.walk(f.space, a, layout, tr.kind);
    EXPECT_EQ(w.levels_touched, 2u);  // PML4 + PUD-level leaf
    EXPECT_EQ(w.kind, PageKind::huge1g);
    // Truncation reuses the real table's interior entries verbatim.
    const mem::WalkResult real = f.space.translate(a);
    EXPECT_EQ(w.entry_addr[0], real.entry_addr[0]);
    EXPECT_EQ(w.entry_addr[1], real.entry_addr[1]);
  }
}

TEST(PagingWalk, Hugetlb2mTruncatesAFourKbLayoutWalk) {
  WalkFixture f;
  const paging::PagingModel m(make_policy(paging::Policy::hugetlb2m));
  const vaddr_t a = f.small.base + KiB(40);
  const mem::WalkResult w =
      m.walk(f.space, a, PageKind::small4k, PageKind::large2m);
  EXPECT_EQ(w.levels_touched, 3u);
  EXPECT_EQ(w.kind, PageKind::large2m);
}

TEST(PagingWalk, Base4kExtendsATwoMbLayoutWalkWithSyntheticPtes) {
  WalkFixture f;
  const paging::PagingModel m(make_policy(paging::Policy::base4k));
  const vaddr_t a = f.large.base + MiB(1);
  const mem::WalkResult real = f.space.translate(a);
  ASSERT_EQ(real.levels_touched, 3u);  // 2 MB leaf: PML4, PUD, PMD
  const mem::WalkResult w =
      m.walk(f.space, a, PageKind::large2m, PageKind::small4k);
  EXPECT_EQ(w.levels_touched, 4u);
  EXPECT_EQ(w.kind, PageKind::small4k);
  // The real interior levels are kept; the synthesised PTE lives in a
  // physical range no allocation reaches.
  EXPECT_EQ(w.entry_addr[2], real.entry_addr[2]);
  EXPECT_GE(w.entry_addr[3], paddr_t{1} << 56);
  // Eight consecutive 4 KB pages share one synthetic 64 B PTE line, like a
  // real PT node.
  const mem::WalkResult next =
      m.walk(f.space, a + KiB(4), PageKind::large2m, PageKind::small4k);
  EXPECT_EQ(next.entry_addr[3], w.entry_addr[3] + sizeof(paddr_t));
}

TEST(PagingWalk, NativeWalkIsTheRealWalk) {
  WalkFixture f;
  const paging::PagingModel m;
  const vaddr_t a = f.small.base + KiB(8);
  const mem::WalkResult w =
      m.walk(f.space, a, PageKind::small4k, PageKind::small4k);
  const mem::WalkResult real = f.space.translate(a);
  EXPECT_EQ(w.levels_touched, real.levels_touched);
  EXPECT_EQ(w.paddr, real.paddr);
}

// --- THP fragmentation model ------------------------------------------------

TEST(ThpModel, DecisionsAreDeterministicPerSeed) {
  const paging::PagingModel a(make_policy(paging::Policy::thp));
  const paging::PagingModel b(make_policy(paging::Policy::thp));
  paging::PolicySpec other = make_policy(paging::Policy::thp);
  other.thp.frag_seed = 0xDEADBEEF;
  const paging::PagingModel c(other);

  unsigned differs = 0;
  for (std::uint64_t chunk = 0; chunk < 4096; ++chunk) {
    ASSERT_EQ(a.thp_promoted(chunk), b.thp_promoted(chunk)) << chunk;
    if (a.thp_promoted(chunk) != c.thp_promoted(chunk)) ++differs;
  }
  // A different fragmentation seed redraws every chunk independently.
  EXPECT_GT(differs, 100u);
}

TEST(ThpModel, SawtoothProbabilityMatchesParameters) {
  paging::PolicySpec spec = make_policy(paging::Policy::thp);
  const paging::PagingModel m(spec);
  const auto& p = spec.thp;
  for (std::uint64_t chunk = 0; chunk < 64; ++chunk) {
    const double phase =
        static_cast<double>(chunk % p.compaction_interval);
    const double expect = 1.0 - (p.frag_base + p.frag_growth * phase);
    EXPECT_NEAR(m.thp_promotion_probability(chunk),
                expect < 0.0 ? 0.0 : expect, 1e-12)
        << chunk;
    // Compaction resets the sawtooth: one full interval later the chunk
    // sees the same fragmentation level.
    EXPECT_EQ(m.thp_promotion_probability(chunk),
              m.thp_promotion_probability(chunk + p.compaction_interval));
  }
}

TEST(ThpModel, PromotionRateTracksMeanProbability) {
  const paging::PagingModel m(make_policy(paging::Policy::thp));
  constexpr std::uint64_t kChunks = 200000;
  std::uint64_t promoted = 0;
  double expected = 0.0;
  for (std::uint64_t chunk = 0; chunk < kChunks; ++chunk) {
    if (m.thp_promoted(chunk)) ++promoted;
    expected += m.thp_promotion_probability(chunk);
  }
  const double rate = static_cast<double>(promoted) / kChunks;
  EXPECT_NEAR(rate, expected / kChunks, 0.01);
  // And the exact count is pinned: the model is a pure function, so this
  // can only change if the hash or the sawtooth changes.
  EXPECT_EQ(promoted, [&] {
    std::uint64_t again = 0;
    const paging::PagingModel fresh(make_policy(paging::Policy::thp));
    for (std::uint64_t chunk = 0; chunk < kChunks; ++chunk) {
      if (fresh.thp_promoted(chunk)) ++again;
    }
    return again;
  }());
}

// --- page-walk cache --------------------------------------------------------

TEST(Pwc, AbsentByDefaultAndBypassed) {
  tlb::Pwc pwc;
  EXPECT_FALSE(pwc.present());
}

TEST(Pwc, HitsDeepestCachedLevelAfterInsert) {
  tlb::Pwc pwc(tlb::PwcConfig{16, 4});
  ASSERT_TRUE(pwc.present());
  const vaddr_t a = vaddr_t{0x7f} << 30;

  // Cold: nothing cached.
  EXPECT_EQ(pwc.deepest_cached(a, 3), -1);
  pwc.insert(a, 3);
  // Warm: the deepest interior level (PMD for a 4-level walk) hits.
  EXPECT_EQ(pwc.deepest_cached(a, 3), 2);
  // A neighbouring address in the same 2 MB region shares all three
  // interior entries.
  EXPECT_EQ(pwc.deepest_cached(a + KiB(4), 3), 2);
  // An address sharing only the PUD span hits one level up.
  EXPECT_EQ(pwc.deepest_cached(a + MiB(2), 3), 1);
  // A shallower walk (huge1g: one interior level) only consults the root.
  EXPECT_EQ(pwc.deepest_cached(a, 1), 0);

  EXPECT_EQ(pwc.stats().lookups, 5u);
  EXPECT_EQ(pwc.stats().hits, 4u);
}

TEST(Pwc, LruEvictsWithinASet) {
  // One set, two ways: the third distinct tag evicts the least recent.
  tlb::Pwc pwc(tlb::PwcConfig{2, 2});
  const vaddr_t a = 0;
  const vaddr_t b = vaddr_t{1} << 39;  // distinct root tag
  const vaddr_t c = vaddr_t{2} << 39;
  pwc.insert(a, 1);
  pwc.insert(b, 1);
  EXPECT_EQ(pwc.deepest_cached(a, 1), 0);  // a is now most recent
  pwc.insert(c, 1);                        // evicts b
  EXPECT_EQ(pwc.deepest_cached(b, 1), -1);
  EXPECT_EQ(pwc.deepest_cached(a, 1), 0);
  EXPECT_EQ(pwc.deepest_cached(c, 1), 0);
}

TEST(Pwc, FlushDropsAllLevels) {
  tlb::Pwc pwc(tlb::PwcConfig{16, 4});
  const vaddr_t a = vaddr_t{5} << 30;
  pwc.insert(a, 3);
  ASSERT_EQ(pwc.deepest_cached(a, 3), 2);
  pwc.flush();
  EXPECT_EQ(pwc.deepest_cached(a, 3), -1);
}

TEST(Pwc, InvalidGeometryRejected) {
  EXPECT_THROW(tlb::Pwc(tlb::PwcConfig{8, 0}), std::logic_error);
  EXPECT_THROW(tlb::Pwc(tlb::PwcConfig{2, 4}), std::logic_error);
  EXPECT_THROW(tlb::Pwc(tlb::PwcConfig{5, 2}), std::logic_error);
}

// Exact per-level LRU model of the PWC: level l keeps, per set, at most
// `ways` tags addr >> (12 + 9 * (3 - l)), most recent first.
class PwcModel {
 public:
  PwcModel(unsigned entries, unsigned ways) : ways_(ways) {
    for (auto& level : levels_) level.resize(entries / ways);
  }

  int deepest_cached(vaddr_t addr, unsigned interior_levels) {
    for (int l = static_cast<int>(interior_levels) - 1; l >= 0; --l) {
      if (touch(static_cast<unsigned>(l), addr, false)) return l;
    }
    return -1;
  }

  void insert(vaddr_t addr, unsigned interior_levels) {
    for (unsigned l = 0; l < interior_levels; ++l) touch(l, addr, true);
  }

 private:
  bool touch(unsigned l, vaddr_t addr, bool fill) {
    const std::uint64_t tag = addr >> (12 + 9 * (3 - l));
    auto& set = levels_[l][tag % levels_[l].size()];
    auto it = std::find(set.begin(), set.end(), tag);
    const bool hit = it != set.end();
    if (hit) set.erase(it);
    if (hit || fill) set.push_front(tag);
    if (set.size() > ways_) set.pop_back();
    return hit;
  }

  std::size_t ways_;
  std::vector<std::list<std::uint64_t>> levels_[3];
};

struct PwcCase {
  unsigned entries;
  unsigned ways;
  std::uint64_t seed;
};

class PwcLruProperty : public ::testing::TestWithParam<PwcCase> {};

// The walker's sequence: probe, then install every interior level the walk
// read — so present tags are refilled all the time.
TEST_P(PwcLruProperty, MatchesReferenceLru) {
  const PwcCase c = GetParam();
  tlb::Pwc pwc(tlb::PwcConfig{c.entries, c.ways});
  PwcModel ref(c.entries, c.ways);
  Rng rng(c.seed);
  for (int i = 0; i < 20000; ++i) {
    // Few root and PUD spans, many PMD spans: every level sees reuse and
    // the deeper ones capacity pressure.
    const vaddr_t addr =
        (rng.next_below(3) << 39) | (rng.next_below(6) << 30) |
        (rng.next_below(40) << 21) | (rng.next_below(512) << 12);
    const unsigned interior = 1 + static_cast<unsigned>(rng.next_below(3));
    const int d = pwc.deepest_cached(addr, interior);
    ASSERT_EQ(d, ref.deepest_cached(addr, interior))
        << "divergence at step " << i << " addr " << addr;
    pwc.insert(addr, interior);
    ref.insert(addr, interior);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PwcLruProperty,
    ::testing::Values(PwcCase{8, 8, 1},     // fully associative
                      PwcCase{64, 8, 2},    // the modern spec's geometry
                      PwcCase{16, 1, 3},    // direct-mapped
                      PwcCase{12, 2, 4},    // non-power-of-two sets
                      PwcCase{32, 4, 5}));

// --- fingerprint ------------------------------------------------------------

exec::RunTask sample_task() {
  exec::RunTask t;
  t.kernel = npb::Kernel::CG;
  t.klass = npb::Klass::S;
  t.threads = 2;
  t.page_kind = PageKind::small4k;
  t.spec = sim::ProcessorSpec::opteron270();
  return t;
}

TEST(PagingFingerprint, NativeEmitsNoPagingSegment) {
  const exec::RunTask t = sample_task();
  EXPECT_EQ(exec::cache_key(t).find("paging{"), std::string::npos);
}

TEST(PagingFingerprint, PoliciesAndThpParamsKeyTheResult) {
  exec::RunTask t = sample_task();
  const std::string native_key = exec::cache_key(t);

  std::vector<std::string> keys = {native_key};
  for (const paging::Policy p :
       {paging::Policy::base4k, paging::Policy::hugetlb2m,
        paging::Policy::huge1g, paging::Policy::thp}) {
    t.paging = make_policy(p);
    const std::string key = exec::cache_key(t);
    EXPECT_NE(key.find("paging{"), std::string::npos);
    for (const std::string& seen : keys) EXPECT_NE(key, seen);
    keys.push_back(key);
  }

  // Every THP knob is part of the key (a different fragmentation landscape
  // is a different experiment).
  t.paging = make_policy(paging::Policy::thp);
  const std::string thp_key = exec::cache_key(t);
  exec::RunTask seed_tweak = t;
  seed_tweak.paging.thp.frag_seed ^= 1;
  EXPECT_NE(exec::cache_key(seed_tweak), thp_key);
  exec::RunTask base_tweak = t;
  base_tweak.paging.thp.frag_base += 0.01;
  EXPECT_NE(exec::cache_key(base_tweak), thp_key);
  exec::RunTask interval_tweak = t;
  interval_tweak.paging.thp.compaction_interval += 1;
  EXPECT_NE(exec::cache_key(interval_tweak), thp_key);
}

// --- strategy identity -------------------------------------------------------

// The subsystem's acceptance property, scaled to a unit test: one class-S
// grid point per policy must produce byte-identical deterministic JSON
// under both strategy spellings. A fresh scheduler per strategy keeps the
// caches from serving one strategy's records to another.
TEST(PagingStrategyIdentity, OneGridPointPerPolicyAllStrategiesAgree) {
  exec::SweepSpec spec;
  spec.kernels = {npb::Kernel::CG};
  spec.klass = npb::Klass::S;
  spec.platforms = {sim::ProcessorSpec::opteron270()};
  spec.threads = {2};
  spec.page_kinds = {PageKind::small4k};
  spec.paging_policies = {make_policy(paging::Policy::native),
                          make_policy(paging::Policy::base4k),
                          make_policy(paging::Policy::hugetlb2m),
                          make_policy(paging::Policy::huge1g),
                          make_policy(paging::Policy::thp)};

  std::string reference;
  for (const exec::Strategy s : {exec::Strategy::Live, exec::Strategy::Auto}) {
    exec::Scheduler::Config cfg;
    cfg.workers = 2;
    exec::Scheduler sched(cfg);
    const exec::SweepResult result = sched.run(spec, s);
    ASSERT_EQ(result.failed(), 0u) << strategy_name(s);
    const std::string json = result.to_json(/*include_host=*/false);
    if (reference.empty()) {
      reference = json;
      // Sanity on the live pass: every policy produced a distinct record
      // and huge1g's walks are two levels each on this PWC-less platform
      // (every access misses the zero-entry 1 GiB bank).
      const exec::RunRecord* r = result.find(
          "CG", sim::ProcessorSpec::opteron270().name, 2, "4KB", "huge1g");
      ASSERT_NE(r, nullptr);
      EXPECT_GT(r->dtlb_walks_1g, 0u);
      EXPECT_EQ(r->walk_levels, 2 * r->dtlb_walks_1g);
    } else {
      EXPECT_EQ(json, reference) << strategy_name(s);
    }
  }
}

}  // namespace
}  // namespace lpomp

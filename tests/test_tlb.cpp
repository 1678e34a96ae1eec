// Unit and property tests for the TLB model, including an equivalence check
// of the MRU fast path against a naive reference LRU.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "support/rng.hpp"
#include "tlb/tlb.hpp"

namespace lpomp::tlb {
namespace {

Tlb::Config small_fa(unsigned n4k, unsigned n2m) {
  return {"t", {n4k, n4k}, {n2m, n2m}, {}};
}

TEST(TlbGeometry, ReachAndSets) {
  TlbGeometry g{512, 4};
  EXPECT_EQ(g.sets(), 128u);
  EXPECT_EQ(g.reach(PageKind::small4k), 512ull * 4096);
  EXPECT_EQ(g.reach(PageKind::large2m), 512ull * 2 * 1024 * 1024);
  EXPECT_FALSE(TlbGeometry{}.present());
}

TEST(TlbGeometry, SharedSliceFullyAssociative) {
  TlbGeometry g{32, 32};
  const TlbGeometry half = g.shared_slice(2);
  EXPECT_EQ(half.entries, 16u);
  EXPECT_EQ(half.ways, 16u);
  EXPECT_EQ(g.shared_slice(1).entries, 32u);
}

TEST(TlbGeometry, SharedSliceSetAssociative) {
  TlbGeometry g{512, 4};
  const TlbGeometry half = g.shared_slice(2);
  EXPECT_EQ(half.entries, 256u);
  EXPECT_EQ(half.ways, 4u);
  // Never shrinks below one set.
  const TlbGeometry tiny = g.shared_slice(1000);
  EXPECT_EQ(tiny.entries, 4u);
}

TEST(TlbGeometry, SharedSliceAbsentStaysAbsent) {
  TlbGeometry g{0, 0};
  EXPECT_FALSE(g.shared_slice(2).present());
}

TEST(Tlb, MissThenHit) {
  Tlb t(small_fa(4, 2));
  EXPECT_FALSE(t.lookup(100, PageKind::small4k));
  t.insert(100, PageKind::small4k);
  EXPECT_TRUE(t.lookup(100, PageKind::small4k));
}

TEST(Tlb, BanksAreIndependent) {
  Tlb t(small_fa(4, 2));
  t.insert(7, PageKind::small4k);
  EXPECT_FALSE(t.lookup(7, PageKind::large2m));
  EXPECT_TRUE(t.lookup(7, PageKind::small4k));
}

TEST(Tlb, AbsentBankNeverHits) {
  Tlb t({"t", {4, 4}, {0, 0}, {}});
  EXPECT_FALSE(t.supports(PageKind::large2m));
  t.insert(1, PageKind::large2m);  // no-op
  EXPECT_FALSE(t.lookup(1, PageKind::large2m));
  EXPECT_TRUE(t.supports(PageKind::small4k));
}

TEST(Tlb, LruEviction) {
  Tlb t(small_fa(4, 0));
  for (vpn_t v = 0; v < 4; ++v) t.insert(v, PageKind::small4k);
  EXPECT_TRUE(t.lookup(0, PageKind::small4k));  // refresh 0; LRU is now 1
  t.insert(99, PageKind::small4k);
  EXPECT_FALSE(t.lookup(1, PageKind::small4k));  // 1 evicted
  EXPECT_TRUE(t.lookup(0, PageKind::small4k));
  EXPECT_TRUE(t.lookup(99, PageKind::small4k));
}

TEST(Tlb, CyclicSweepThrashesFullyAssociative) {
  // The classic pattern: cycling through capacity+1 pages under true LRU
  // misses on every access.
  Tlb t(small_fa(8, 0));
  for (int round = 0; round < 3; ++round) {
    for (vpn_t v = 0; v < 9; ++v) {
      const bool hit = t.lookup(v, PageKind::small4k);
      if (round > 0) {
        EXPECT_FALSE(hit);
      }
      if (!hit) t.insert(v, PageKind::small4k);
    }
  }
}

TEST(Tlb, SetAssociativeMapsBySetIndex) {
  Tlb t({"t", {8, 2}, {0, 0}, {}});  // 4 sets × 2 ways
  // VPNs 0, 4, 8 all map to set 0; two fit, the third evicts the LRU.
  t.insert(0, PageKind::small4k);
  t.insert(4, PageKind::small4k);
  t.insert(8, PageKind::small4k);
  EXPECT_FALSE(t.lookup(0, PageKind::small4k));
  EXPECT_TRUE(t.lookup(4, PageKind::small4k));
  EXPECT_TRUE(t.lookup(8, PageKind::small4k));
  // Other sets are untouched.
  t.insert(1, PageKind::small4k);
  EXPECT_TRUE(t.lookup(1, PageKind::small4k));
}

TEST(Tlb, FlushDropsEverything) {
  Tlb t(small_fa(4, 2));
  t.insert(1, PageKind::small4k);
  t.insert(2, PageKind::large2m);
  t.flush();
  EXPECT_FALSE(t.lookup(1, PageKind::small4k));
  EXPECT_FALSE(t.lookup(2, PageKind::large2m));
}

TEST(Tlb, OutcomesPerKind) {
  Tlb t(small_fa(4, 2));
  EXPECT_FALSE(t.lookup(1, PageKind::small4k));
  EXPECT_EQ(t.occupancy(PageKind::small4k), 0u);  // a lookup never fills
  t.insert(1, PageKind::small4k);
  EXPECT_TRUE(t.lookup(1, PageKind::small4k));
  EXPECT_FALSE(t.lookup(1, PageKind::large2m));  // banks are per kind
  EXPECT_FALSE(t.lookup(9, PageKind::large2m));
  EXPECT_EQ(t.occupancy(PageKind::small4k), 1u);
  EXPECT_EQ(t.occupancy(PageKind::large2m), 0u);
}

TEST(Tlb, InvalidGeometryRejected) {
  // 5 % 2 != 0
  EXPECT_THROW(Tlb({"bad", {5, 2}, {0, 0}, {}}), std::logic_error);
  // Zero ways, and fewer entries than one set, in any bank.
  EXPECT_THROW(Tlb({"bad", {8, 0}, {0, 0}, {}}), std::logic_error);
  EXPECT_THROW(Tlb({"bad", {8, 8}, {2, 4}, {}}), std::logic_error);
  EXPECT_THROW(Tlb({"bad", {8, 8}, {8, 8}, {1, 0}}), std::logic_error);
}

// Reference model: per-set std::list LRU, most recent at front.
class ReferenceLru {
 public:
  ReferenceLru(unsigned entries, unsigned ways)
      : ways_(ways), sets_(entries / ways) {}

  bool lookup(vpn_t vpn) {
    auto& set = sets_[vpn % sets_.size()];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == vpn) {
        set.erase(it);
        set.push_front(vpn);
        return true;
      }
    }
    return false;
  }

  void insert(vpn_t vpn) {
    auto& set = sets_[vpn % sets_.size()];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == vpn) {
        set.erase(it);
        break;
      }
    }
    set.push_front(vpn);
    if (set.size() > ways_) set.pop_back();
  }

 private:
  std::size_t ways_;
  std::vector<std::list<vpn_t>> sets_;
};

struct LruCase {
  unsigned entries;
  unsigned ways;
  std::uint64_t seed;
  unsigned page_space;  ///< VPNs drawn from [0, page_space)
  // gtest names each case by the struct's bytes; an explicit zero tail
  // keeps those names free of uninitialised padding.
  unsigned tail = 0;
};

class TlbLruProperty : public ::testing::TestWithParam<LruCase> {};

TEST_P(TlbLruProperty, MatchesReferenceLru) {
  const LruCase c = GetParam();
  Tlb t({"prop", {c.entries, c.ways}, {0, 0}, {}});
  ReferenceLru ref(c.entries, c.ways);
  Rng rng(c.seed);
  for (int i = 0; i < 20000; ++i) {
    const vpn_t vpn = rng.next_below(c.page_space);
    const bool hit = t.lookup(vpn, PageKind::small4k);
    const bool ref_hit = ref.lookup(vpn);
    ASSERT_EQ(hit, ref_hit) << "divergence at step " << i << " vpn " << vpn;
    if (!hit) {
      t.insert(vpn, PageKind::small4k);
      ref.insert(vpn);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbLruProperty,
    ::testing::Values(LruCase{8, 8, 1, 12},      // fully assoc, thrash
                      LruCase{8, 8, 2, 6},       // fully assoc, fits
                      LruCase{32, 32, 3, 100},   // Opteron L1-like
                      LruCase{128, 128, 4, 300},  // Xeon DTLB-like
                      LruCase{512, 4, 5, 2000},  // Opteron L2-like
                      LruCase{512, 4, 6, 300},
                      LruCase{16, 2, 7, 64},
                      LruCase{64, 8, 8, 512}));

}  // namespace
}  // namespace lpomp::tlb

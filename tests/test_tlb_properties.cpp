// Property-based TLB tests: randomized access sequences (seeded Rng, so
// every run is reproducible) checked against the structural invariants the
// simulator's results rest on:
//
//   * occupancy never exceeds the configured entry count, per page kind;
//   * true LRU within a set — an entry touched within the last `ways`
//     accesses to its set is never evicted (verified against an exact
//     per-set LRU reference model, which also pins hit/miss equivalence);
//   * flush_all() zeroes occupancy but preserves cumulative walk counts;
//   * Tlb::access (one scan) equals lookup() then insert() on a miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "support/rng.hpp"
#include "tlb/tlb.hpp"
#include "tlb/tlb_hierarchy.hpp"

namespace lpomp::tlb {
namespace {

/// touch(): the access pattern the hierarchy performs per level — probe,
/// and install on miss. Returns the hit verdict.
bool touch(Tlb& t, vpn_t vpn, PageKind kind) {
  const bool hit = t.lookup(vpn, kind);
  if (!hit) t.insert(vpn, kind);
  return hit;
}

/// Exact reference model of one set-associative, true-LRU bank: per set, an
/// ordered list of at most `ways` vpns, most recent first.
class LruModel {
 public:
  LruModel(unsigned sets, unsigned ways) : sets_(sets), ways_(ways) {}

  bool touch(vpn_t vpn) {
    std::deque<vpn_t>& set = sets_map_[vpn % sets_];
    auto it = std::find(set.begin(), set.end(), vpn);
    const bool hit = it != set.end();
    if (hit) set.erase(it);
    set.push_front(vpn);
    if (set.size() > ways_) set.pop_back();
    return hit;
  }

  /// The `ways` most recently touched distinct vpns of vpn's set.
  const std::deque<vpn_t>& resident(vpn_t vpn) {
    return sets_map_[vpn % sets_];
  }

 private:
  unsigned sets_;
  unsigned ways_;
  std::map<vpn_t, std::deque<vpn_t>> sets_map_;  // set index → MRU list
};

struct Geometry {
  unsigned entries;
  unsigned ways;
};

// Geometries spanning the paper's Table 1 shapes: fully associative
// (Opteron L1), set associative (Opteron L2: 512 entries 4-way), small and
// degenerate (direct-mapped, single-set).
const Geometry kGeometries[] = {
    {32, 32}, {512, 4}, {128, 4}, {8, 8}, {16, 1}, {4, 2}};

class TlbProperty : public ::testing::TestWithParam<Geometry> {};

TEST_P(TlbProperty, OccupancyNeverExceedsConfiguredEntries) {
  const Geometry g = GetParam();
  Tlb t({"prop",
         {g.entries, g.ways},
         {g.entries / 2 + 1, g.entries / 2 + 1},
         {}});
  Rng rng(0xacce55ULL + g.entries * 131 + g.ways);
  for (int i = 0; i < 20000; ++i) {
    const PageKind kind =
        rng.next_below(4) == 0 ? PageKind::large2m : PageKind::small4k;
    // Address range several times the capacity, so sets overflow routinely.
    touch(t, rng.next_below(g.entries * 8 + 3), kind);
    ASSERT_LE(t.occupancy(PageKind::small4k), g.entries);
    ASSERT_LE(t.occupancy(PageKind::large2m), g.entries / 2 + 1);
  }
  // With far more distinct pages than entries, the structure must actually
  // fill (occupancy == capacity), not just stay bounded.
  EXPECT_EQ(t.occupancy(PageKind::small4k), g.entries);
}

TEST_P(TlbProperty, MatchesExactLruModelAndNeverEvictsRecentlyTouched) {
  const Geometry g = GetParam();
  Tlb t({"prop", {g.entries, g.ways}, {}, {}});
  LruModel model(g.entries / g.ways, g.ways);
  Rng rng(0x1405eedULL + g.entries * 31 + g.ways);
  for (int i = 0; i < 20000; ++i) {
    const vpn_t vpn = rng.next_below(g.entries * 4 + 1);
    const bool model_hit = model.touch(vpn);
    const bool tlb_hit = touch(t, vpn, PageKind::small4k);
    // Hit/miss equivalence with the reference model implies the LRU
    // guarantee: anything touched within the last `ways` accesses to its
    // set is still in the model's list, so it must hit in the Tlb too.
    ASSERT_EQ(tlb_hit, model_hit) << "step " << i << " vpn " << vpn;
    // And explicitly: every vpn the model holds resident is a guaranteed
    // hit (probed on a copy-free second lookup, which only refreshes LRU).
    if (i % 97 == 0) {
      // Copy: the sync-up touch below mutates the model's deque.
      const std::deque<vpn_t> resident = model.resident(vpn);
      for (vpn_t r : resident) {
        ASSERT_TRUE(t.lookup(r, PageKind::small4k))
            << "recently-touched vpn " << r << " was evicted (step " << i
            << ")";
        model.touch(r);  // keep the model in sync with the probe
      }
    }
  }
}

TEST_P(TlbProperty, AccessMatchesLookupThenInsert) {
  // Tlb::access is lookup() plus, on a miss, insert() in one scan: the same
  // verdicts and occupancy on a random stream over every kind,
  // including a kind the level cannot hold (1 GiB here).
  const Geometry g = GetParam();
  const Tlb::Config cfg{"prop",
                        {g.entries, g.ways},
                        {g.entries / 2 + 1, g.entries / 2 + 1},
                        {}};
  Tlb one_scan(cfg);
  Tlb two_scans(cfg);
  Rng rng(0xacce55'0001ULL + g.entries * 7 + g.ways);
  for (int i = 0; i < 20000; ++i) {
    const auto kind = static_cast<PageKind>(rng.next_below(kPageKindCount));
    const vpn_t vpn = rng.next_below(g.entries * 3 + 1);
    ASSERT_EQ(one_scan.access(vpn, kind), touch(two_scans, vpn, kind))
        << "step " << i;
    if (i % 64 == 0) {
      for (PageKind k :
           {PageKind::small4k, PageKind::large2m, PageKind::huge1g}) {
        ASSERT_EQ(one_scan.occupancy(k), two_scans.occupancy(k))
            << "step " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, TlbProperty,
                         ::testing::ValuesIn(kGeometries),
                         [](const auto& info) {
                           return std::to_string(info.param.entries) + "e" +
                                  std::to_string(info.param.ways) + "w";
                         });

TEST(TlbProperty, UnsupportedKindStaysEmpty) {
  // Opteron L2 DTLB shape: no 2 MB entries at all.
  Tlb t({"l2d", {512, 4}, {}, {}});
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(touch(t, rng.next_below(1 << 20), PageKind::large2m));
  }
  EXPECT_EQ(t.occupancy(PageKind::large2m), 0u);
}

TEST(TlbHierarchyProperty, FlushZeroesOccupancyAndForcesWalks) {
  // The Opteron shape: L1 with both kinds, 4 KB-only L2.
  TlbHierarchy h({"itlb", {32, 32}, {8, 8}, {}},
                 {"l1d", {32, 32}, {8, 8}, {}},
                 Tlb::Config{"l2d", {512, 4}, {}, {}});
  Rng rng(0xf1005ULL);
  const int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 500; ++i) {
      const PageKind kind =
          rng.next_below(3) == 0 ? PageKind::large2m : PageKind::small4k;
      h.data_access(rng.next_below(2048), kind);
      h.instr_access(rng.next_below(64), PageKind::small4k);
    }
    EXPECT_GT(h.l1d().occupancy(PageKind::small4k), 0u);
    EXPECT_GT(h.l2d().occupancy(PageKind::small4k), 0u);
    EXPECT_GT(h.itlb().occupancy(PageKind::small4k), 0u);

    h.flush_all();

    // Occupancy zeroed at every level and for every kind...
    for (PageKind kind : {PageKind::small4k, PageKind::large2m}) {
      EXPECT_EQ(h.itlb().occupancy(kind), 0u);
      EXPECT_EQ(h.l1d().occupancy(kind), 0u);
      EXPECT_EQ(h.l2d().occupancy(kind), 0u);
    }
    // ...so the first re-access of each kind is a guaranteed walk or miss.
    EXPECT_EQ(h.data_access(1, PageKind::small4k), DtlbHit::walk);
    EXPECT_EQ(h.data_access(1, PageKind::large2m), DtlbHit::walk);
    EXPECT_FALSE(h.instr_access(1, PageKind::small4k));
  }
}

}  // namespace
}  // namespace lpomp::tlb

// Unit and property tests for the set-associative cache model.
#include <gtest/gtest.h>

#include <list>
#include <ostream>
#include <vector>

#include "cache/cache.hpp"
#include "support/rng.hpp"

namespace lpomp::cache {
namespace {

TEST(CacheGeometry, DerivedQuantities) {
  CacheGeometry g{MiB(1), 64, 16};
  EXPECT_EQ(g.lines(), MiB(1) / 64);
  EXPECT_EQ(g.sets(), MiB(1) / 64 / 16);
  EXPECT_TRUE(g.present());
}

TEST(CacheGeometry, SharedSliceDividesCapacity) {
  CacheGeometry g{MiB(2), 64, 8};
  EXPECT_EQ(g.shared_slice(2).size_bytes, MiB(1));
  EXPECT_EQ(g.shared_slice(4).size_bytes, KiB(512));
  EXPECT_EQ(g.shared_slice(1).size_bytes, MiB(2));
}

TEST(CacheGeometry, SharedSliceNeverBelowOneSet) {
  CacheGeometry g{KiB(1), 64, 8};  // 16 lines, 2 sets
  const CacheGeometry s = g.shared_slice(64);
  EXPECT_GE(s.lines(), s.ways);
  EXPECT_EQ(s.lines() % s.ways, 0u);
}

TEST(Cache, MissThenHitSameLine) {
  Cache c("t", {KiB(1), 64, 2});
  EXPECT_FALSE(c.access(0x100, false));
  EXPECT_TRUE(c.access(0x100, false));
  EXPECT_TRUE(c.access(0x13F, false));   // same 64 B line
  EXPECT_FALSE(c.access(0x140, false));  // next line
}

TEST(Cache, WriteAllocates) {
  Cache c("t", {KiB(1), 64, 2});
  EXPECT_FALSE(c.access(0x200, true));
  EXPECT_EQ(c.occupancy(), 1u);  // the store miss allocated its line
  EXPECT_TRUE(c.access(0x200, false));
}

TEST(Cache, LruWithinSet) {
  // 2 sets × 2 ways, 64 B lines: line addresses with the same parity share
  // a set. Lines 0, 2, 4 (set 0): after touching 0 again, inserting 4
  // evicts 2.
  Cache c("t", {256, 64, 2});
  c.access(0 * 64, false);
  c.access(2 * 64, false);
  c.access(0 * 64, false);  // refresh 0
  c.access(4 * 64, false);  // evicts 2
  EXPECT_TRUE(c.access(0 * 64, false));
  EXPECT_FALSE(c.access(2 * 64, false));
}

TEST(Cache, CapacityEviction) {
  Cache c("t", {KiB(1), 64, 16});  // fully-associative 16 lines
  for (vaddr_t l = 0; l < 17; ++l) c.access(l * 64, false);
  EXPECT_FALSE(c.access(0, false));  // line 0 evicted by line 16
}

TEST(Cache, FlushInvalidatesAll) {
  Cache c("t", {KiB(1), 64, 2});
  c.access(0, false);
  c.flush();
  EXPECT_FALSE(c.access(0, false));
}

TEST(Cache, OutcomesAndOccupancy) {
  Cache c("t", {KiB(1), 64, 2});
  EXPECT_EQ(c.occupancy(), 0u);
  EXPECT_FALSE(c.access(0, false));
  EXPECT_TRUE(c.access(0, false));
  EXPECT_FALSE(c.access(4096, false));  // same set, second way
  EXPECT_EQ(c.occupancy(), 2u);
  EXPECT_FALSE(c.access(8192, false));  // evicts line 0, the set's LRU
  EXPECT_EQ(c.occupancy(), 2u);
  EXPECT_FALSE(c.access(0, false));
  c.flush();
  EXPECT_EQ(c.occupancy(), 0u);
}

TEST(Cache, RejectsZeroSize) {
  EXPECT_THROW(Cache("bad", CacheGeometry{0, 64, 2}), std::logic_error);
}

TEST(Cache, RejectsZeroWaysAndPartialSets) {
  // The first two used to crash: zero ways divided by zero, and a cache
  // smaller than one line built zero sets and faulted on its first access.
  EXPECT_THROW(Cache("bad", CacheGeometry{KiB(1), 64, 0}), std::logic_error);
  EXPECT_THROW(Cache("bad", CacheGeometry{32, 64, 1}), std::logic_error);
  EXPECT_THROW(Cache("bad", CacheGeometry{KiB(1), 64, 3}), std::logic_error);
  const CacheGeometry no_ways{KiB(1), 64, 0};
  EXPECT_THROW((void)no_ways.sets(), std::logic_error);
}

TEST(Cache, RejectsNonPowerOfTwoLine) {
  EXPECT_THROW(Cache("bad", CacheGeometry{KiB(1), 48, 2}), std::logic_error);
}

// Reference model equivalence under random traces.
class ReferenceCache {
 public:
  ReferenceCache(const CacheGeometry& g)
      : line_bytes_(g.line_bytes), ways_(g.ways), sets_(g.sets()) {}

  bool access(vaddr_t addr) {
    const std::uint64_t line = addr / line_bytes_;
    auto& set = sets_[line % sets_.size()];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.erase(it);
        set.push_front(line);
        return true;
      }
    }
    set.push_front(line);
    if (set.size() > ways_) set.pop_back();
    return false;
  }

 private:
  std::size_t line_bytes_;
  std::size_t ways_;
  std::vector<std::list<std::uint64_t>> sets_;
};

struct CacheCase {
  std::size_t size;
  std::size_t line;
  unsigned ways;
  std::uint64_t seed;
  vaddr_t space;
};

// Also the test-name suffix (PrintToStringParamName), so names never hold
// the struct's raw bytes.
void PrintTo(const CacheCase& c, std::ostream* os) {
  *os << c.size / KiB(1) << "KiB_" << c.line << "Bline_" << c.ways
      << "w_seed" << c.seed << "_span" << c.space / KiB(1) << "KiB";
}

class CacheLruProperty : public ::testing::TestWithParam<CacheCase> {};

TEST_P(CacheLruProperty, MatchesReferenceLru) {
  const CacheCase p = GetParam();
  Cache c("prop", {p.size, p.line, p.ways});
  ReferenceCache ref({p.size, p.line, p.ways});
  Rng rng(p.seed);
  for (int i = 0; i < 20000; ++i) {
    // Mix of random and sequential access to exercise the MRU filter.
    const vaddr_t addr = (i % 3 == 0)
                             ? static_cast<vaddr_t>(i) * 8 % p.space
                             : rng.next_below(p.space);
    ASSERT_EQ(c.access(addr, false), ref.access(addr)) << "step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheLruProperty,
    ::testing::Values(CacheCase{KiB(4), 64, 2, 1, KiB(16)},
                      CacheCase{KiB(4), 64, 4, 2, KiB(8)},
                      CacheCase{KiB(16), 64, 8, 3, KiB(64)},
                      CacheCase{KiB(8), 32, 2, 4, KiB(32)},
                      CacheCase{KiB(64), 64, 16, 5, KiB(256)},
                      CacheCase{KiB(4), 128, 2, 6, KiB(16)}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace lpomp::cache

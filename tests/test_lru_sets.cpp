// The set-associative LRU tag store behind the TLB banks, the data caches
// and the page-walk cache, checked op by op against a naive exact-LRU
// model: per set, a list of at most `ways` tags, most recent first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/lru_sets.hpp"
#include "support/rng.hpp"

namespace lpomp::cache {
namespace {

class ExactLru {
 public:
  ExactLru(std::size_t entries, unsigned ways)
      : ways_(ways), sets_(entries / ways) {}

  bool find(std::uint64_t tag) {
    auto& set = set_of(tag);
    auto it = std::find(set.begin(), set.end(), tag);
    if (it == set.end()) return false;
    set.erase(it);
    set.push_front(tag);
    last_ = tag;
    return true;
  }

  bool access(std::uint64_t tag) {
    if (find(tag)) return true;
    auto& set = set_of(tag);
    set.push_front(tag);
    if (set.size() > ways_) set.pop_back();
    last_ = tag;
    return false;
  }

  void flush() {
    for (auto& set : sets_) set.clear();
    last_ = LruSets::kEmpty;
  }

  std::size_t occupancy() const {
    std::size_t n = 0;
    for (const auto& set : sets_) n += set.size();
    return n;
  }

  /// The most recently used tag (kEmpty when nothing has been used since
  /// the last flush).
  std::uint64_t last() const { return last_; }

 private:
  std::list<std::uint64_t>& set_of(std::uint64_t tag) {
    return sets_[tag % sets_.size()];
  }

  std::size_t ways_;
  std::vector<std::list<std::uint64_t>> sets_;
  std::uint64_t last_ = LruSets::kEmpty;
};

struct EngineCase {
  const char* name;
  std::size_t entries;
  unsigned ways;
  std::size_t hint_slots;
  std::uint64_t tags;    ///< tags drawn as base + stride * [0, tags)
  std::uint64_t stride;  ///< a multiple of hint_slots collides every hint
  std::uint64_t seed;
};

// Prints the case name, so test names never carry the raw bytes of the
// name pointer or of padding.
void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.name; }

class LruSetsProperty : public ::testing::TestWithParam<EngineCase> {};

TEST_P(LruSetsProperty, MatchesExactLruModel) {
  const EngineCase c = GetParam();
  LruSets engine(c.entries, c.ways, c.hint_slots);
  ExactLru model(c.entries, c.ways);
  Rng rng(c.seed);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t tag = 3 + c.stride * rng.next_below(c.tags);
    const std::uint64_t op = rng.next_below(100);
    if (op < 30) {
      ASSERT_EQ(engine.find(tag), model.find(tag)) << "find, step " << i;
    } else if (op < 50) {
      engine.fill(tag);
      model.access(tag);
    } else if (op < 90) {
      ASSERT_EQ(engine.access(tag), model.access(tag)) << "access, step " << i;
    } else if (op < 99) {
      // A bulk credit stands for n hits on the MRU tag, which the model
      // applies one by one.
      if (model.last() == LruSets::kEmpty) continue;
      ASSERT_TRUE(engine.mru_hit(model.last())) << "step " << i;
      const count_t n = 1 + rng.next_below(50);
      engine.credit_mru(n);
      for (count_t k = 0; k < n; ++k) model.find(model.last());
    } else {
      engine.flush();
      model.flush();
    }
    // The filter holds exactly the most recently used tag.
    ASSERT_EQ(engine.mru_hit(tag), model.last() == tag) << "step " << i;
    ASSERT_EQ(engine.occupancy(), model.occupancy()) << "step " << i;
  }
  ASSERT_LE(engine.occupancy(), c.entries);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruSetsProperty,
    ::testing::Values(
        EngineCase{"FullyAssocThrash", 8, 8, 256, 12, 1, 1},
        EngineCase{"FullyAssocFits", 32, 32, 256, 30, 1, 2},
        EngineCase{"DirectMapped", 16, 1, 256, 40, 1, 3},
        EngineCase{"Pow2Sets", 64, 4, 256, 200, 1, 4},
        EngineCase{"Pow2SetsWide", 512, 8, 2048, 1500, 1, 5},
        EngineCase{"NonPow2Sets", 24, 2, 256, 80, 1, 6},
        EngineCase{"NonPow2SetsWide", 48, 4, 2048, 200, 1, 7},
        EngineCase{"HintCollisions", 16, 2, 4, 40, 4, 8},
        EngineCase{"HintCollisionsNonPow2", 12, 3, 8, 30, 8, 9}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(LruSets, PresentTagFillMovesTheMruFilter) {
  // One set of two ways. The refill of A makes B least recent; B's hit then
  // makes A least recent, so C must evict A. Were the filter left on B by
  // A's refill, B's hit would skip its stamp and C would evict B instead.
  LruSets s(2, 2, 256);
  const std::uint64_t a = 1, b = 2, c = 3;
  s.fill(a);
  s.fill(b);
  s.fill(a);
  ASSERT_TRUE(s.find(b));
  s.fill(c);
  EXPECT_FALSE(s.find(a));
  EXPECT_TRUE(s.find(b));
  EXPECT_TRUE(s.find(c));
}

TEST(LruSets, FlushEmptiesEverySlotAndTheFilter) {
  LruSets s(8, 2, 256);
  for (std::uint64_t t = 0; t < 8; ++t) s.fill(t);
  EXPECT_EQ(s.occupancy(), 8u);
  s.flush();
  EXPECT_EQ(s.occupancy(), 0u);
  EXPECT_FALSE(s.mru_hit(7));
  EXPECT_FALSE(s.find(7));
}

TEST(LruSets, RejectsInvalidGeometry) {
  EXPECT_THROW(LruSets(8, 0, 256), std::logic_error);   // no ways
  EXPECT_THROW(LruSets(0, 1, 256), std::logic_error);   // no set
  EXPECT_THROW(LruSets(2, 4, 256), std::logic_error);   // below one set
  EXPECT_THROW(LruSets(10, 4, 256), std::logic_error);  // partial set
  EXPECT_THROW(LruSets(8, 2, 100), std::logic_error);   // hint table size
  EXPECT_NO_THROW(LruSets(12, 4, 256));                 // 3 sets
}

}  // namespace
}  // namespace lpomp::cache

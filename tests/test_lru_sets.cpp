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

/// Moves an engine's private clock forward, so a test reaches its 32-bit
/// wrap in a few steps. Moving it forward keeps every stamp unique.
class LruSetsTestAccess {
 public:
  static void advance_clock(LruSets& s, std::uint32_t to) {
    ASSERT_GE(to, s.clock_);
    s.clock_ = to;
  }
  static std::uint32_t clock(const LruSets& s) { return s.clock_; }
  static constexpr std::uint32_t kClockMax = LruSets::kClockMax;
};

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
    return true;
  }

  bool access(std::uint64_t tag) {
    if (find(tag)) return true;
    auto& set = set_of(tag);
    set.push_front(tag);
    if (set.size() > ways_) set.pop_back();
    return false;
  }

  void flush() {
    for (auto& set : sets_) set.clear();
  }

  std::size_t occupancy() const {
    std::size_t n = 0;
    for (const auto& set : sets_) n += set.size();
    return n;
  }

  std::size_t sets() const { return sets_.size(); }

  /// The most recently used tag of set `s` (kEmpty when the set is empty).
  std::uint64_t front(std::size_t s) const {
    return sets_[s].empty() ? LruSets::kEmpty : sets_[s].front();
  }
  /// front() of `tag`'s set.
  std::uint64_t front_of_set(std::uint64_t tag) const {
    return front(static_cast<std::size_t>(tag % sets_.size()));
  }

 private:
  std::list<std::uint64_t>& set_of(std::uint64_t tag) {
    return sets_[tag % sets_.size()];
  }

  std::size_t ways_;
  std::vector<std::list<std::uint64_t>> sets_;
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

/// Runs 30000 random operations on `engine` and on the exact model, and
/// checks every outcome. Every `wrap_every` steps (0: never) the engine's
/// clock jumps to a few stamps short of its wrap.
void check_against_model(const EngineCase& c, unsigned wrap_every) {
  LruSets engine(c.entries, c.ways, c.hint_slots);
  ExactLru model(c.entries, c.ways);
  Rng rng(c.seed);
  for (int i = 0; i < 30000; ++i) {
    if (wrap_every != 0 && i % wrap_every == 0) {
      LruSetsTestAccess::advance_clock(engine,
                                       LruSetsTestAccess::kClockMax - 40);
    }
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
      // A bulk credit of n hits on the newest tag of any set leaves the
      // engine untouched; the model applies them one by one.
      const std::uint64_t newest = model.front(
          static_cast<std::size_t>(rng.next_below(model.sets())));
      if (newest == LruSets::kEmpty) continue;
      ASSERT_TRUE(engine.mru_hit(newest)) << "step " << i;
      const count_t n = 1 + rng.next_below(50);
      for (count_t k = 0; k < n; ++k) model.find(newest);
    } else {
      engine.flush();
      model.flush();
    }
    // The filter holds exactly the most recently used tag of each set.
    ASSERT_EQ(engine.mru_hit(tag), model.front_of_set(tag) == tag)
        << "step " << i;
    ASSERT_EQ(engine.occupancy(), model.occupancy()) << "step " << i;
  }
  ASSERT_LE(engine.occupancy(), c.entries);
}

TEST_P(LruSetsProperty, MatchesExactLruModel) {
  check_against_model(GetParam(), 0);
}

// Each set's stamps are renumbered by rank before the 32-bit clock wraps;
// crossing the wrap every 500 steps must change no outcome.
TEST_P(LruSetsProperty, MatchesExactLruModelAcrossClockWraps) {
  check_against_model(GetParam(), 500);
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

TEST(LruSets, EverySetsNewestTagIsAnMruHit) {
  // Four sets of two ways; tags 0 and 4 share set 0, tag 1 is in set 1.
  LruSets s(8, 2, 256);
  s.fill(0);
  s.fill(1);
  EXPECT_TRUE(s.mru_hit(0));  // newest of set 0, though 1 came later
  EXPECT_TRUE(s.mru_hit(1));
  s.fill(4);
  EXPECT_FALSE(s.mru_hit(0));  // 4 is now set 0's newest
  EXPECT_TRUE(s.mru_hit(4));
  EXPECT_TRUE(s.mru_hit(1));
  EXPECT_FALSE(s.mru_hit(2));  // never filled
}

TEST(LruSets, FlushEmptiesEverySlotAndTheFilter) {
  LruSets s(8, 2, 256);
  for (std::uint64_t t = 0; t < 8; ++t) s.fill(t);
  EXPECT_EQ(s.occupancy(), 8u);
  s.flush();
  EXPECT_EQ(s.occupancy(), 0u);
  EXPECT_FALSE(s.mru_hit(7));
  EXPECT_FALSE(s.mru_hit(6));
  EXPECT_FALSE(s.find(7));
}

TEST(LruSets, ClockWrapRenumbersEachSetByRank) {
  // One set of four ways, filled a, b, c, d, then a restamped: LRU order
  // b < c < d < a. The next stamp crosses the wrap.
  LruSets s(4, 4, 256);
  for (const std::uint64_t t : {1, 2, 3, 4, 1}) s.fill(t);
  LruSetsTestAccess::advance_clock(s, LruSetsTestAccess::kClockMax);
  s.fill(5);  // evicts b, the oldest, after the renumbering
  EXPECT_EQ(LruSetsTestAccess::clock(s), 5u);  // ranks 1..4, then 5
  EXPECT_FALSE(s.find(2));
  s.fill(6);  // evicts c
  EXPECT_FALSE(s.find(3));
  EXPECT_TRUE(s.find(4));
  EXPECT_TRUE(s.find(1));
  EXPECT_TRUE(s.find(5));
  EXPECT_TRUE(s.find(6));
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

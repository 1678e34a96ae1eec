// Unit and property tests for the static loop schedule.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "core/parallel_for.hpp"

namespace lpomp::core {
namespace {

TEST(StaticPartition, SplitsEvenly) {
  const StaticRange r0 = static_partition(0, 100, 0, 4);
  const StaticRange r3 = static_partition(0, 100, 3, 4);
  EXPECT_EQ(r0.begin, 0);
  EXPECT_EQ(r0.size(), 25);
  EXPECT_EQ(r3.end, 100);
}

TEST(StaticPartition, RemainderGoesToLowTids) {
  // 10 iterations, 4 threads: 3,3,2,2.
  EXPECT_EQ(static_partition(0, 10, 0, 4).size(), 3);
  EXPECT_EQ(static_partition(0, 10, 1, 4).size(), 3);
  EXPECT_EQ(static_partition(0, 10, 2, 4).size(), 2);
  EXPECT_EQ(static_partition(0, 10, 3, 4).size(), 2);
}

TEST(StaticPartition, EmptyRangeAndMoreThreadsThanWork) {
  EXPECT_EQ(static_partition(5, 5, 0, 4).size(), 0);
  EXPECT_EQ(static_partition(0, 2, 3, 4).size(), 0);
  EXPECT_EQ(static_partition(0, 2, 0, 4).size(), 1);
}

TEST(StaticPartition, NonZeroFirst) {
  const StaticRange r = static_partition(10, 20, 1, 2);
  EXPECT_EQ(r.begin, 15);
  EXPECT_EQ(r.end, 20);
}

struct PartitionCase {
  index_t first, last;
  unsigned threads;
};

// Also the test-name suffix (PrintToStringParamName), so names never hold
// the struct's raw bytes; "m" marks a negative bound.
void PrintTo(const PartitionCase& c, std::ostream* os) {
  const auto bound = [os](index_t v) {
    if (v < 0) *os << "m";
    *os << (v < 0 ? -v : v);
  };
  bound(c.first);
  *os << "to";
  bound(c.last);
  *os << "_" << c.threads << "t";
}

class PartitionProperty : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionProperty, CoversRangeExactlyOnce) {
  const auto [first, last, threads] = GetParam();
  std::vector<int> hits(static_cast<std::size_t>(last - first), 0);
  for (unsigned tid = 0; tid < threads; ++tid) {
    const StaticRange r = static_partition(first, last, tid, threads);
    EXPECT_LE(r.begin, r.end);
    for (index_t i = r.begin; i < r.end; ++i) {
      ++hits[static_cast<std::size_t>(i - first)];
    }
    // Balance: no thread more than one iteration above the average.
    EXPECT_LE(r.size(), (last - first) / threads + 1);
  }
  for (int h : hits) EXPECT_EQ(h, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionProperty,
    ::testing::Values(PartitionCase{0, 100, 1}, PartitionCase{0, 100, 3},
                      PartitionCase{0, 7, 8}, PartitionCase{0, 8, 8},
                      PartitionCase{-50, 50, 4}, PartitionCase{3, 1000, 7},
                      PartitionCase{0, 1, 1}, PartitionCase{0, 65536, 6}),
    ::testing::PrintToStringParamName());

TEST(ForStatic, VisitsOwnRange) {
  std::vector<index_t> seen;
  for_static(0, 10, 1, 3, [&seen](index_t i) { seen.push_back(i); });
  // Thread 1 of 3 over [0,10): 4,3,3 → [4,7).
  EXPECT_EQ(seen, (std::vector<index_t>{4, 5, 6}));
}

}  // namespace
}  // namespace lpomp::core

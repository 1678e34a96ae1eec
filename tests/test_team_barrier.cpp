// Concurrency tests for the fork-join team and its sense-reversing barrier.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/barrier.hpp"
#include "core/team.hpp"
#include "support/rng.hpp"

namespace lpomp::core {
namespace {

TEST(SenseBarrier, SingleThreadPassesThrough) {
  SenseBarrier b(1);
  for (int i = 0; i < 10; ++i) b.arrive_and_wait(0);
  EXPECT_EQ(b.team_size(), 1u);
}

void barrier_ordering_test(unsigned n) {
  SenseBarrier barrier(n);
  constexpr int kRounds = 200;
  std::vector<std::atomic<int>> round_of(n);
  for (auto& r : round_of) r.store(0);

  std::vector<std::thread> threads;
  std::atomic<bool> violated{false};
  for (unsigned tid = 0; tid < n; ++tid) {
    threads.emplace_back([&, tid] {
      Rng rng(tid + 1);
      for (int round = 0; round < kRounds; ++round) {
        // Nobody may be more than one round ahead of anybody else.
        for (unsigned u = 0; u < n; ++u) {
          const int r = round_of[u].load(std::memory_order_relaxed);
          if (std::abs(r - round) > 1) violated.store(true);
        }
        if (rng.next_below(4) == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        barrier.arrive_and_wait(tid);
        round_of[tid].store(round + 1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(violated.load());
}

TEST(SenseBarrier, KeepsThreadsInLockstep2) { barrier_ordering_test(2); }

TEST(SenseBarrier, KeepsThreadsInLockstep4) { barrier_ordering_test(4); }

TEST(SenseBarrier, KeepsThreadsInLockstep8) { barrier_ordering_test(8); }

TEST(Team, RunsBodyOnAllThreads) {
  SenseBarrier barrier(4);
  Team team(4, barrier);
  std::vector<std::atomic<int>> hits(4);
  for (auto& h : hits) h.store(0);
  team.run([&hits](unsigned tid) { hits[tid].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(team.size(), 4u);
}

TEST(Team, ManySequentialRegions) {
  SenseBarrier barrier(4);
  Team team(4, barrier);
  std::atomic<int> total{0};
  for (int i = 0; i < 100; ++i) {
    team.run([&total](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 400);
  EXPECT_EQ(team.region_count(), 100u);
}

TEST(Team, BarrierInsideRegion) {
  SenseBarrier barrier(4);
  Team team(4, barrier);
  std::atomic<int> phase1{0};
  std::atomic<bool> ok{true};
  team.run([&](unsigned tid) {
    phase1.fetch_add(1);
    team.barrier().arrive_and_wait(tid);
    if (phase1.load() != 4) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
}

TEST(Team, SingleThreadTeamRunsInline) {
  SenseBarrier barrier(1);
  Team team(1, barrier);
  const auto self = std::this_thread::get_id();
  std::thread::id seen;
  team.run([&seen](unsigned) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, self);  // master is tid 0
}

TEST(Team, ReduceSlotsAreDistinctAndAligned) {
  SenseBarrier barrier(4);
  Team team(4, barrier);
  for (unsigned t = 0; t < 4; ++t) {
    const auto addr = reinterpret_cast<std::uintptr_t>(team.reduce_slot(t));
    EXPECT_EQ(addr % 64, 0u);
    for (unsigned u = t + 1; u < 4; ++u) {
      EXPECT_NE(team.reduce_slot(t), team.reduce_slot(u));
    }
  }
}

TEST(Team, MismatchedBarrierRejected) {
  SenseBarrier barrier(2);
  EXPECT_THROW(Team(4, barrier), std::logic_error);
}

TEST(Team, WorkersExitCleanlyOnDestruction) {
  for (int i = 0; i < 20; ++i) {
    SenseBarrier barrier(4);
    Team team(4, barrier);
    team.run([](unsigned) {});
  }  // destructor joins workers each time; must not hang or crash
  SUCCEED();
}

}  // namespace
}  // namespace lpomp::core

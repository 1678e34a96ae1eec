// The fork-join team's fibers and its sense-reversing barrier.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/team.hpp"
#include "support/rng.hpp"

namespace lpomp::core {
namespace {

TEST(SenseBarrier, SingleThreadPassesThrough) {
  SenseBarrier b(1);
  for (int i = 0; i < 10; ++i) b.arrive_and_wait(0);
  EXPECT_EQ(b.team_size(), 1u);
}

// Threads that also give way at random points between barriers (as a
// blocked MPI receive does) still never drift a round apart.
void barrier_ordering_test(unsigned n) {
  SenseBarrier barrier(n);
  Team team(n, barrier);
  constexpr int kRounds = 200;
  std::vector<int> round_of(n, 0);
  bool violated = false;
  team.run([&](unsigned tid) {
    Rng rng(tid + 1);
    for (int round = 0; round < kRounds; ++round) {
      // Nobody may be more than one round ahead of anybody else.
      for (unsigned u = 0; u < n; ++u) {
        if (std::abs(round_of[u] - round) > 1) violated = true;
      }
      if (rng.next_below(4) == 0) Team::yield();
      barrier.arrive_and_wait(tid);
      round_of[tid] = round + 1;
    }
  });
  EXPECT_FALSE(violated);
  for (unsigned u = 0; u < n; ++u) EXPECT_EQ(round_of[u], kRounds);
}

TEST(SenseBarrier, KeepsThreadsInLockstep2) { barrier_ordering_test(2); }

TEST(SenseBarrier, KeepsThreadsInLockstep4) { barrier_ordering_test(4); }

TEST(SenseBarrier, KeepsThreadsInLockstep8) { barrier_ordering_test(8); }

TEST(Team, RunsBodyOnAllThreads) {
  SenseBarrier barrier(4);
  Team team(4, barrier);
  std::vector<int> hits(4, 0);
  team.run([&hits](unsigned tid) { ++hits[tid]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(team.size(), 4u);
}

TEST(Team, ManySequentialRegions) {
  SenseBarrier barrier(4);
  Team team(4, barrier);
  int total = 0;
  for (int i = 0; i < 100; ++i) {
    team.run([&total](unsigned) { ++total; });
  }
  EXPECT_EQ(total, 400);
}

TEST(Team, BarrierInsideRegion) {
  SenseBarrier barrier(4);
  Team team(4, barrier);
  int phase1 = 0;
  bool ok = true;
  team.run([&](unsigned tid) {
    ++phase1;
    team.barrier().arrive_and_wait(tid);
    if (phase1 != 4) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(Team, SingleThreadTeamRunsInline) {
  SenseBarrier barrier(1);
  Team team(1, barrier);
  const auto self = std::this_thread::get_id();
  std::thread::id seen;
  team.run([&seen](unsigned) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, self);  // master is tid 0
}

// Every thread of a wider team runs on the caller's host thread too.
TEST(Team, AllThreadsRunOnTheCallingHostThread) {
  SenseBarrier barrier(8);
  Team team(8, barrier);
  const auto self = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  team.run([&](unsigned tid) {
    seen[tid] = std::this_thread::get_id();
    team.barrier().arrive_and_wait(tid);
    EXPECT_EQ(std::this_thread::get_id(), self);
  });
  for (const auto& id : seen) EXPECT_EQ(id, self);
}

// The schedule: tid 0 runs until it waits, then the next unfinished fiber
// in tid order; the last arrival at a barrier keeps running, and the
// others follow it in tid order.
TEST(Team, ThreadsRunInTidOrderBetweenBarriers) {
  SenseBarrier barrier(4);
  Team team(4, barrier);
  std::vector<unsigned> order;
  team.run([&](unsigned tid) {
    order.push_back(tid);
    team.barrier().arrive_and_wait(tid);
    order.push_back(10 + tid);
  });
  EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2, 3, 13, 10, 11, 12}));
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
  }  // the destructor unmaps the fiber stacks each time
  SUCCEED();
}

// An exception on tid 2 ends the region while the others wait at the
// barrier: run() rethrows it on the caller, and the team runs the next
// region as if nothing had happened.
TEST(Team, ExceptionOnOneThreadEndsTheRegion) {
  SenseBarrier barrier(4);
  Team team(4, barrier);
  std::vector<int> after(4, 0);
  EXPECT_THROW(team.run([&](unsigned tid) {
                 if (tid == 2) throw std::runtime_error("tid 2 failed");
                 barrier.arrive_and_wait(tid);
                 ++after[tid];
               }),
               std::runtime_error);
  EXPECT_EQ(after, (std::vector<int>{0, 0, 0, 0}));

  int total = 0;
  team.run([&](unsigned tid) {
    barrier.arrive_and_wait(tid);
    ++total;
  });
  EXPECT_EQ(total, 4);
}

// A thread that waits for threads which have all left the region would
// wait forever; it throws instead.
TEST(Team, WaitingOnFinishedThreadsThrows) {
  SenseBarrier barrier(2);
  Team team(2, barrier);
  EXPECT_THROW(team.run([&](unsigned tid) {
                 if (tid == 0) barrier.arrive_and_wait(tid);
               }),
               std::logic_error);
}

}  // namespace
}  // namespace lpomp::core

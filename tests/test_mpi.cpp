// Tests for the intra-node MPI layer (the paper's §6 future work).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpi/mpi.hpp"

namespace lpomp::mpi {
namespace {

core::RuntimeConfig cfg(unsigned threads, PageKind kind = PageKind::small4k,
                        bool with_sim = false) {
  core::RuntimeConfig c;
  c.num_threads = threads;
  c.page_kind = kind;
  c.shared_pool_bytes = MiB(16);
  if (with_sim) c.sim = core::SimConfig{};
  return c;
}

TEST(Mpi, PingPongSmall) {
  core::Runtime rt(cfg(2));
  Communicator comm(rt);
  std::vector<double> got(4, 0.0);
  rt.parallel([&](core::ThreadCtx& ctx) {
    if (ctx.tid() == 0) {
      const double msg[4] = {1, 2, 3, 4};
      comm.send(ctx, 1, 7, msg, 4);
      double echo[4];
      comm.recv(ctx, 1, 8, echo, 4);
      for (int i = 0; i < 4; ++i) got[static_cast<std::size_t>(i)] = echo[i];
    } else {
      double buf[4];
      comm.recv(ctx, 0, 7, buf, 4);
      for (double& v : buf) v *= 10.0;
      comm.send(ctx, 0, 8, buf, 4);
    }
  });
  EXPECT_EQ(got, (std::vector<double>{10, 20, 30, 40}));
}

TEST(Mpi, LargeMessageSpansManyChunks) {
  core::Runtime rt(cfg(2));
  Communicator comm(rt, /*chunk_doubles=*/64, /*slots=*/2);
  constexpr std::size_t kN = 10000;  // 157 chunks through a 2-slot ring
  std::vector<double> out(kN);
  rt.parallel([&](core::ThreadCtx& ctx) {
    if (ctx.tid() == 0) {
      std::vector<double> in(kN);
      std::iota(in.begin(), in.end(), 0.0);
      comm.send(ctx, 1, 1, in.data(), kN);
    } else {
      comm.recv(ctx, 0, 1, out.data(), kN);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(out[i], static_cast<double>(i));
  }
  EXPECT_EQ(comm.doubles_transferred(), kN);
}

TEST(Mpi, BackToBackMessagesKeepOrder) {
  core::Runtime rt(cfg(2));
  Communicator comm(rt, 32, 2);
  std::vector<double> seen;
  rt.parallel([&](core::ThreadCtx& ctx) {
    if (ctx.tid() == 0) {
      for (int m = 0; m < 10; ++m) {
        std::vector<double> msg(100, static_cast<double>(m));
        comm.send(ctx, 1, m, msg.data(), msg.size());
      }
    } else {
      for (int m = 0; m < 10; ++m) {
        std::vector<double> buf(100);
        comm.recv(ctx, 0, m, buf.data(), buf.size());
        if (ctx.tid() == 1) seen.push_back(buf[50]);
      }
    }
  });
  ASSERT_EQ(seen.size(), 10u);
  for (int m = 0; m < 10; ++m) EXPECT_EQ(seen[static_cast<std::size_t>(m)], m);
}

TEST(Mpi, TagMismatchDetected) {
  core::Runtime rt(cfg(2));
  Communicator comm(rt);
  std::atomic<bool> threw{false};
  rt.parallel([&](core::ThreadCtx& ctx) {
    if (ctx.tid() == 0) {
      const double v = 1.0;
      comm.send(ctx, 1, 5, &v, 1);
    } else {
      double v;
      try {
        comm.recv(ctx, 0, 6, &v, 1);  // wrong tag
      } catch (const std::logic_error&) {
        threw.store(true);
        // Manually drain the in-flight chunk and ack it so the blocked
        // sender can complete and the region can join.
        auto& mbox = comm.channel();
        (void)mbox.recv_value<std::uint8_t>(1, 0);  // the ready token
        mbox.send_value<std::uint8_t>(1, 0, 2);     // ack
      }
    }
  });
  EXPECT_TRUE(threw.load());
}

TEST(Mpi, AllreduceSumsAcrossRanks) {
  for (unsigned ranks : {2u, 3u, 4u}) {
    core::Runtime rt(cfg(ranks));
    Communicator comm(rt, 16, 2);
    constexpr std::size_t kN = 100;
    std::vector<std::vector<double>> per_rank(
        ranks, std::vector<double>(kN));
    rt.parallel([&](core::ThreadCtx& ctx) {
      std::vector<double>& mine = per_rank[ctx.tid()];
      for (std::size_t i = 0; i < kN; ++i) {
        mine[i] = static_cast<double>(ctx.tid() + 1) * static_cast<double>(i);
      }
      comm.allreduce_sum(ctx, mine.data(), kN);
    });
    const double factor = ranks * (ranks + 1) / 2.0;  // Σ (r+1)
    for (unsigned r = 0; r < ranks; ++r) {
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_DOUBLE_EQ(per_rank[r][i], factor * static_cast<double>(i))
            << "rank " << r << " element " << i;
      }
    }
  }
}

TEST(Mpi, BcastFromNonZeroRoot) {
  core::Runtime rt(cfg(4));
  Communicator comm(rt, 32, 2);
  std::vector<std::vector<double>> per_rank(4, std::vector<double>(64, -1.0));
  rt.parallel([&](core::ThreadCtx& ctx) {
    std::vector<double>& mine = per_rank[ctx.tid()];
    if (ctx.tid() == 2) {
      for (std::size_t i = 0; i < mine.size(); ++i) {
        mine[i] = 100.0 + static_cast<double>(i);
      }
    }
    comm.bcast(ctx, 2, mine.data(), mine.size());
  });
  for (unsigned r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(per_rank[r][i], 100.0 + static_cast<double>(i));
    }
  }
}

TEST(Mpi, AllgatherDistributesSegments) {
  core::Runtime rt(cfg(4));
  Communicator comm(rt, 16, 2);
  constexpr std::size_t kPer = 40;
  std::vector<std::vector<double>> per_rank(4,
                                            std::vector<double>(4 * kPer, 0));
  rt.parallel([&](core::ThreadCtx& ctx) {
    std::vector<double>& mine = per_rank[ctx.tid()];
    for (std::size_t i = 0; i < kPer; ++i) {
      mine[ctx.tid() * kPer + i] = 1000.0 * ctx.tid() + static_cast<double>(i);
    }
    comm.allgather(ctx, mine.data(), kPer);
  });
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned seg = 0; seg < 4; ++seg) {
      for (std::size_t i = 0; i < kPer; ++i) {
        ASSERT_EQ(per_rank[r][seg * kPer + i],
                  1000.0 * seg + static_cast<double>(i))
            << "rank " << r << " segment " << seg;
      }
    }
  }
}

TEST(Mpi, SingleRankCollectivesAreNoops) {
  core::Runtime rt(cfg(1));
  Communicator comm(rt);
  double v[2] = {3.0, 4.0};
  rt.parallel([&](core::ThreadCtx& ctx) {
    comm.allreduce_sum(ctx, v, 2);
    comm.bcast(ctx, 0, v, 2);
  });
  EXPECT_EQ(v[0], 3.0);
  EXPECT_EQ(v[1], 4.0);
}

TEST(Mpi, ChannelTrafficIsInstrumented) {
  core::Runtime rt(cfg(2, PageKind::small4k, /*with_sim=*/true));
  Communicator comm(rt, 512, 4);
  constexpr std::size_t kN = 8192;
  rt.parallel([&](core::ThreadCtx& ctx) {
    std::vector<double> buf(kN, 1.0);
    if (ctx.tid() == 0) {
      comm.send(ctx, 1, 0, buf.data(), kN);
    } else {
      comm.recv(ctx, 0, 0, buf.data(), kN);
    }
  });
  // Two instrumented copies of the payload (ring store + ring load).
  EXPECT_GE(rt.machine()->totals().accesses, 2 * kN);
}

TEST(Mpi, HugePageChannelVerifiesToo) {
  core::Runtime rt(cfg(4, PageKind::large2m, /*with_sim=*/true));
  Communicator comm(rt, 1024, 4);
  constexpr std::size_t kN = 4096;
  std::vector<std::vector<double>> per_rank(4, std::vector<double>(kN, 1.0));
  rt.parallel([&](core::ThreadCtx& ctx) {
    comm.allreduce_sum(ctx, per_rank[ctx.tid()].data(), kN);
  });
  for (unsigned r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(per_rank[r][i], 4.0);
    }
  }
  EXPECT_EQ(rt.machine()->totals().dtlb_walks[0], 0u);
}

TEST(Mpi, InvalidPeersRejected) {
  core::Runtime rt(cfg(2));
  Communicator comm(rt);
  rt.parallel([&](core::ThreadCtx& ctx) {
    if (ctx.tid() == 0) {
      double v = 0.0;
      EXPECT_THROW(comm.send(ctx, 0, 0, &v, 1), std::logic_error);  // self
      EXPECT_THROW(comm.send(ctx, 9, 0, &v, 1), std::logic_error);
      EXPECT_THROW(comm.recv(ctx, 9, 0, &v, 1), std::logic_error);
    }
  });
}

}  // namespace
}  // namespace lpomp::mpi

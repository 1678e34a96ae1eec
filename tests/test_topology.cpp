// Tests for the topology-aware pool: Topology parsing and domain
// arithmetic, the work-stealing pool under an explicit shape, and — the
// load-bearing invariant — that sweeps under randomized socket × core
// shapes and worker counts yield RunRecords counter-identical to a
// single-worker sweep under both strategy spellings and under a
// non-native paging policy.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/scheduler.hpp"
#include "exec/thread_pool.hpp"
#include "exec/topology.hpp"
#include "paging/policy.hpp"

namespace lpomp::exec {
namespace {

TEST(Topology, ParsesSocketByCoreShapes) {
  const Topology t = Topology::parse("2x4");
  EXPECT_EQ(t.sockets, 2u);
  EXPECT_EQ(t.cores_per_socket, 4u);
  EXPECT_EQ(t.workers(), 8u);
  EXPECT_EQ(t.domains(), 2u);
  EXPECT_EQ(t.name(), "2x4");
  EXPECT_TRUE(t.specified());
}

TEST(Topology, RejectsMalformedShapes) {
  EXPECT_THROW(Topology::parse(""), std::invalid_argument);
  EXPECT_THROW(Topology::parse("4"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("x4"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("4x"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("0x4"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("2x0"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("2x2x2"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("ax2"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("2x4096x"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("9999x9999"), std::invalid_argument);
}

TEST(Topology, WorkersAreNumberedSocketMajor) {
  const Topology t = Topology::parse("2x3");
  // Domain 0 owns workers 0..2, domain 1 owns 3..5.
  EXPECT_EQ(t.domain_of(0), 0u);
  EXPECT_EQ(t.domain_of(2), 0u);
  EXPECT_EQ(t.domain_of(3), 1u);
  EXPECT_EQ(t.domain_of(5), 1u);
}

TEST(Topology, ExplicitShapeWinsOverWorkerCount) {
  const Topology requested = Topology::parse("2x2");
  const Topology resolved = Topology::resolve(requested, 16);
  EXPECT_EQ(resolved.workers(), 4u);  // the shape fixes the worker count
  EXPECT_EQ(resolved.name(), "2x2");
}

TEST(Topology, UnspecifiedShapeResolvesToRequestedWorkers) {
  const Topology resolved = Topology::resolve(Topology{}, 3);
  EXPECT_TRUE(resolved.specified());
  EXPECT_EQ(resolved.workers(), 3u);
}

TEST(Topology, ZeroWorkersResolveToAtLeastOne) {
  const Topology resolved = Topology::resolve(Topology{}, 0);
  EXPECT_TRUE(resolved.specified());
  EXPECT_GE(resolved.workers(), 1u);
}

TEST(WorkStealingPool, RunsEveryTaskUnderAnExplicitTopology) {
  WorkStealingPool pool(0, Topology::parse("2x2"));
  EXPECT_EQ(pool.workers(), 4u);
  EXPECT_EQ(pool.domains(), 2u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) pool.submit([&] { ++ran; });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

/// The identity-check grid: two kernels × both platforms × {1,2,4} threads
/// × both page kinds at class S.
SweepSpec small_sweep() {
  SweepSpec spec;
  spec.kernels = {npb::Kernel::CG, npb::Kernel::MG};
  spec.klass = npb::Klass::S;
  spec.platforms = {sim::ProcessorSpec::opteron270(),
                    sim::ProcessorSpec::xeon_ht()};
  spec.threads = {1, 2, 4};
  return spec;
}

/// Counter-identity of two sweeps: every record same_result() and the
/// deterministic JSON projections byte-identical (what CI diffs).
void expect_identical(const SweepResult& a, const SweepResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_TRUE(a.records[i].same_result(b.records[i]))
        << label << " diverged at " << a.records[i].kernel << " "
        << a.records[i].threads << "T " << a.records[i].page_kind;
  }
  EXPECT_EQ(a.to_json(false), b.to_json(false)) << label;
}

// The tentpole guarantee, stress-tested: randomized socket × core shapes
// must change nothing but wall-clock behaviour. Both strategy spellings
// produce records counter-identical to the single-worker baseline.
TEST(TopologyIdentity, RandomShapesMatchSingleWorkerUnderEveryStrategy) {
  const SweepSpec spec = small_sweep();
  std::mt19937 rng(0x70b0);  // fixed seed: reproducible shape choices
  std::uniform_int_distribution<unsigned> dim(1, 3);

  for (const Strategy strategy : {Strategy::Live, Strategy::Auto}) {
    Scheduler::Config base_cfg;
    base_cfg.workers = 1;
    base_cfg.topology = Topology::flat(1);
    Scheduler baseline(base_cfg);
    const SweepResult want = baseline.run(spec, strategy);
    EXPECT_EQ(want.failed(), 0u);

    for (int round = 0; round < 2; ++round) {
      Topology shape;
      shape.sockets = dim(rng);
      shape.cores_per_socket = dim(rng);
      Scheduler::Config cfg;
      cfg.topology = shape;
      Scheduler scheduler(cfg);
      EXPECT_EQ(scheduler.workers(), shape.workers());
      const SweepResult got = scheduler.run(spec, strategy);
      expect_identical(want, got,
                       std::string(strategy_name(strategy)) + " @ " +
                           shape.name());
    }
  }
}

// Paging-policy overlays must stay identical across shapes too.
TEST(TopologyIdentity, PagingPolicySweepMatchesSingleWorker) {
  SweepSpec spec = small_sweep();
  spec.kernels = {npb::Kernel::CG};
  paging::PolicySpec thp;
  ASSERT_TRUE(paging::policy_from_name("thp", thp.policy));
  spec.paging_policies = {paging::PolicySpec{}, thp};

  Scheduler::Config base_cfg;
  base_cfg.workers = 1;
  base_cfg.topology = Topology::flat(1);
  Scheduler baseline(base_cfg);
  const SweepResult want = baseline.run(spec);
  EXPECT_EQ(want.failed(), 0u);

  Scheduler::Config cfg;
  cfg.topology = Topology::parse("2x2");
  Scheduler scheduler(cfg);
  const SweepResult got = scheduler.run(spec);
  expect_identical(want, got, "paging @ 2x2");
  EXPECT_EQ(got.domains, 2u);
  EXPECT_EQ(got.topology, "2x2");
}

}  // namespace
}  // namespace lpomp::exec

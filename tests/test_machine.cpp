// Unit tests for the whole-machine simulator: placement, resource slicing,
// fork-join time accounting and the SMT models.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/runtime.hpp"
#include "npb/cg.hpp"
#include "npb/npb.hpp"
#include "oracle/reference_sim.hpp"
#include "paging/policy.hpp"
#include "sim/machine.hpp"

namespace lpomp::sim {
namespace {

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : pm_(MiB(64)), space_(pm_) {
    data_ = space_.map_region(MiB(16), PageKind::small4k, "data");
  }

  mem::PhysMem pm_;
  mem::AddressSpace space_;
  mem::Region data_;
};

TEST_F(MachineTest, PlacementSpreadsSocketsFirst) {
  Machine m(ProcessorSpec::xeon_ht(), CostModel{}, space_, 8);
  // Threads 0..3 land on distinct cores, one per socket alternating.
  EXPECT_EQ(m.placement(0).socket, 0u);
  EXPECT_EQ(m.placement(1).socket, 1u);
  EXPECT_EQ(m.placement(2).socket, 0u);
  EXPECT_EQ(m.placement(3).socket, 1u);
  for (unsigned t = 0; t < 4; ++t) EXPECT_EQ(m.placement(t).smt, 0u);
  // Threads 4..7 are the second SMT contexts of the same cores.
  for (unsigned t = 4; t < 8; ++t) {
    EXPECT_EQ(m.placement(t).smt, 1u);
    EXPECT_TRUE(m.placement(t).same_core(m.placement(t - 4)));
  }
}

// end_parallel combines each core's threads at its SMT context 0, so that
// context must be the core's lowest thread id on every platform and width.
TEST_F(MachineTest, SmtContextZeroIsEachCoresLowestThread) {
  for (const ProcessorSpec& spec :
       {ProcessorSpec::opteron270(), ProcessorSpec::xeon_ht(),
        ProcessorSpec::modern()}) {
    for (unsigned n = 1; n <= spec.max_threads(); ++n) {
      Machine m(spec, CostModel{}, space_, n);
      for (unsigned t = 0; t < n; ++t) {
        bool lowest = true;
        for (unsigned u = 0; u < t; ++u) {
          if (m.placement(u).same_core(m.placement(t))) lowest = false;
        }
        EXPECT_EQ(m.placement(t).smt == 0, lowest)
            << spec.name << " " << n << "T, thread " << t;
      }
    }
  }
}

TEST_F(MachineTest, FourThreadsUseDistinctCores) {
  Machine m(ProcessorSpec::opteron270(), CostModel{}, space_, 4);
  for (unsigned a = 0; a < 4; ++a) {
    for (unsigned b = a + 1; b < 4; ++b) {
      EXPECT_FALSE(m.placement(a).same_core(m.placement(b)));
    }
  }
}

TEST_F(MachineTest, TooManyThreadsRejected) {
  EXPECT_THROW(
      Machine(ProcessorSpec::opteron270(), CostModel{}, space_, 5),
      std::logic_error);
  EXPECT_THROW(Machine(ProcessorSpec::xeon_ht(), CostModel{}, space_, 9),
               std::logic_error);
  EXPECT_THROW(Machine(ProcessorSpec::xeon_ht(), CostModel{}, space_, 0),
               std::logic_error);
}

TEST_F(MachineTest, SmtCoResidentsSeeSlicedTlb) {
  // 8 threads on the Xeon: each SMT pair shares the 128-entry DTLB, so a
  // thread's private view holds 64 entries — pages 0..63 fit, page 64
  // evicts. At 4 threads the full 128 entries are visible.
  Machine m8(ProcessorSpec::xeon_ht(), CostModel{}, space_, 8);
  ThreadSim& t8 = m8.thread(0);
  m8.begin_parallel();
  for (vaddr_t p = 0; p < 65; ++p) {
    t8.touch(data_.base + p * kSmallPageSize, PageKind::small4k,
             Access::load);
  }
  // Revisit page 0: with 64 sliced entries it was evicted → walk.
  const count_t walks_before = t8.counters().dtlb_walk_total();
  t8.touch(data_.base, PageKind::small4k, Access::load);
  EXPECT_EQ(t8.counters().dtlb_walk_total(), walks_before + 1);
  m8.end_parallel();

  Machine m4(ProcessorSpec::xeon_ht(), CostModel{}, space_, 4);
  ThreadSim& t4 = m4.thread(0);
  m4.begin_parallel();
  for (vaddr_t p = 0; p < 65; ++p) {
    t4.touch(data_.base + p * kSmallPageSize, PageKind::small4k,
             Access::load);
  }
  const count_t walks4 = t4.counters().dtlb_walk_total();
  t4.touch(data_.base, PageKind::small4k, Access::load);
  EXPECT_EQ(t4.counters().dtlb_walk_total(), walks4);  // 128 entries: hit
  m4.end_parallel();
}

TEST_F(MachineTest, ParallelRegionChargesSlowestCore) {
  CostModel cm;
  Machine m(ProcessorSpec::opteron270(), cm, space_, 2);
  m.begin_parallel();
  m.thread(0).add_compute(1000);
  m.thread(1).add_compute(5000);
  m.end_parallel();
  m.end_run();
  const cycles_t barrier = cm.barrier_base + 2 * cm.barrier_per_thread;
  EXPECT_EQ(m.total_cycles(), 5000 + barrier);
}

TEST_F(MachineTest, SerialWorkChargedBetweenRegions) {
  CostModel cm;
  Machine m(ProcessorSpec::opteron270(), cm, space_, 2);
  m.thread(0).add_compute(700);  // serial prologue on the master
  m.begin_parallel();
  m.thread(0).add_compute(100);
  m.thread(1).add_compute(100);
  m.end_parallel();
  m.thread(0).add_compute(300);  // serial epilogue
  m.end_run();
  const cycles_t barrier = cm.barrier_base + 2 * cm.barrier_per_thread;
  EXPECT_EQ(m.total_cycles(), 700 + 100 + barrier + 300);
}

TEST_F(MachineTest, EndRunIdempotentWhenNoNewWork) {
  Machine m(ProcessorSpec::opteron270(), CostModel{}, space_, 1);
  m.thread(0).add_compute(42);
  m.end_run();
  const cycles_t total = m.total_cycles();
  m.end_run();
  EXPECT_EQ(m.total_cycles(), total);
}

TEST_F(MachineTest, NestedParallelRejected) {
  Machine m(ProcessorSpec::opteron270(), CostModel{}, space_, 1);
  m.begin_parallel();
  EXPECT_THROW(m.begin_parallel(), std::logic_error);
  m.end_parallel();
  EXPECT_THROW(m.end_parallel(), std::logic_error);
}

TEST_F(MachineTest, IdealSmtOverlapsStalls) {
  // Two threads on one core (Xeon placement at 8 threads): core time is
  // max(sum of exec, longest thread), so stall-heavy threads overlap.
  ProcessorSpec spec = ProcessorSpec::xeon_ht();
  spec.smt_flush_on_switch = false;  // ideal SMT for this test
  CostModel cm;
  cm.smt_issue_factor = 1.0;
  cm.barrier_base = 0;
  cm.barrier_per_thread = 0;
  Machine m(spec, cm, space_, 8);
  m.begin_parallel();
  // Threads 0 and 4 share core (socket 0, core 0).
  m.thread(0).add_compute(1000);
  m.thread(4).add_compute(1000);
  m.end_parallel();
  EXPECT_EQ(m.total_cycles(), 2000u);  // exec sums on the shared core
}

TEST_F(MachineTest, FlushSmtPaysPerLongStall) {
  CostModel cm;
  cm.barrier_base = 0;
  cm.barrier_per_thread = 0;
  cm.smt_issue_factor = 1.0;
  Machine m(ProcessorSpec::xeon_ht(), cm, space_, 8);
  m.begin_parallel();
  // Induce long stalls on thread 0 (cold far-apart pages miss to memory).
  for (int i = 0; i < 4; ++i) {
    m.thread(0).touch(data_.base + static_cast<vaddr_t>(i) * 8 * 4096,
                      PageKind::small4k, Access::load);
  }
  m.thread(4).add_compute(1);  // wake the SMT sibling
  const count_t stalls = m.thread(0).counters().long_stalls;
  EXPECT_GT(stalls, 0u);
  m.end_parallel();
  m.end_run();
  const cycles_t with_flush = m.total_cycles();

  // Same work with a single thread per core: no flush penalty.
  Machine m4(ProcessorSpec::xeon_ht(), cm, space_, 4);
  m4.begin_parallel();
  for (int i = 0; i < 4; ++i) {
    m4.thread(0).touch(data_.base + static_cast<vaddr_t>(i) * 8 * 4096,
                       PageKind::small4k, Access::load);
  }
  m4.end_parallel();
  m4.end_run();
  EXPECT_GE(with_flush, m4.total_cycles() + cm.smt_flush * stalls);
}

TEST_F(MachineTest, SmtIssueFactorInflatesSharedCore) {
  CostModel cm;
  cm.barrier_base = 0;
  cm.barrier_per_thread = 0;
  cm.smt_issue_factor = 1.5;
  ProcessorSpec spec = ProcessorSpec::xeon_ht();
  spec.smt_flush_on_switch = false;
  Machine m(spec, cm, space_, 8);
  m.begin_parallel();
  m.thread(0).add_compute(1000);
  m.thread(4).add_compute(1000);
  m.end_parallel();
  EXPECT_EQ(m.total_cycles(), 3000u);  // 2000 × 1.5
}

TEST_F(MachineTest, TotalsAggregateAllThreads) {
  Machine m(ProcessorSpec::opteron270(), CostModel{}, space_, 4);
  m.begin_parallel();
  for (unsigned t = 0; t < 4; ++t) {
    m.thread(t).touch(data_.base + t * MiB(1), PageKind::small4k,
                      Access::load);
  }
  m.end_parallel();
  const ThreadCounters totals = m.totals();
  EXPECT_EQ(totals.accesses, 4u);
  EXPECT_EQ(totals.dtlb_walk_total(), 4u);
}

TEST_F(MachineTest, SecondsUsesClock) {
  CostModel cm;
  cm.clock_ghz = 2.0;
  Machine m(ProcessorSpec::opteron270(), cm, space_, 1);
  m.thread(0).add_compute(2'000'000'000ull);
  m.end_run();
  EXPECT_DOUBLE_EQ(m.seconds(), 1.0);
}

/// Counts and cycles of CG.S run through a Runtime's Machine.
struct CgRun {
  ThreadCounters totals;
  cycles_t cycles = 0;
};

CgRun run_cg_s(const ProcessorSpec& spec, unsigned threads,
               const paging::PolicySpec& policy, const CostModel& cost) {
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.paging = policy;
  cfg.shared_pool_bytes = npb::pool_bytes_for(npb::Kernel::CG, npb::Klass::S);
  cfg.sim = core::SimConfig{spec, cost, 0x5eedULL};
  core::Runtime rt(cfg);
  const npb::CodeModel code = npb::code_model(npb::Kernel::CG);
  rt.attach_code_model(
      static_cast<std::size_t>(npb::binary_bytes(npb::Kernel::CG)),
      code.jump_period, code.cold_fraction, cfg.code_page_kind);
  npb::run_cg(rt, npb::Klass::S);
  rt.finish_seconds();
  return CgRun{rt.machine()->totals(), rt.machine()->total_cycles()};
}

// Costs only weigh counts: no count depends on the CostModel. Changing every
// constant leaves each counter of the run as it was and moves its time.
// Covers the Xeon at 8 threads (SMT pairs, flush-on-switch) and the modern
// platform's page-walk cache under THP.
TEST(MachineCosts, CountsDoNotDependOnCostModel) {
  paging::PolicySpec thp;
  thp.policy = paging::Policy::thp;
  struct Point {
    ProcessorSpec spec;
    unsigned threads;
    paging::PolicySpec policy;
  };
  for (const Point& p : {Point{ProcessorSpec::xeon_ht(), 8, {}},
                         Point{ProcessorSpec::modern(), 4, thp}}) {
    const std::string label = p.spec.name + "/" + p.policy.name();
    const CgRun base = run_cg_s(p.spec, p.threads, p.policy, CostModel{});
    const CgRun primed =
        run_cg_s(p.spec, p.threads, p.policy, oracle::prime_costs());
    std::ostringstream os;
    EXPECT_TRUE(oracle::diff_counters(primed.totals, base.totals, os))
        << label << os.str();
    EXPECT_GT(base.totals.accesses, 0u) << label;
    EXPECT_NE(primed.cycles, base.cycles) << label;
  }
}

}  // namespace
}  // namespace lpomp::sim

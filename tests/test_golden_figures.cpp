// Golden-file regression tests for the reproduced figures: small-class
// Figure 4 / Figure 5 grids run through the sweep scheduler, and the
// deterministic JSON projection is compared byte-for-byte against
// checked-in tests/golden/*.json. Any change to the simulator, the
// kernels, the cost model or the JSON schema that shifts a reproduced
// number shows up here as a diff — numbers can't drift silently.
//
// To regenerate after an intentional change:
//   LPOMP_UPDATE_GOLDEN=1 ./test_golden_figures && git diff tests/golden/
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "exec/scheduler.hpp"
#include "paging/policy.hpp"
#include "sim/thread_sim.hpp"

#ifndef LPOMP_GOLDEN_DIR
#error "LPOMP_GOLDEN_DIR must point at tests/golden"
#endif

namespace lpomp::exec {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(LPOMP_GOLDEN_DIR) + "/" + name;
}

bool update_mode() { return std::getenv("LPOMP_UPDATE_GOLDEN") != nullptr; }

void compare_against_golden(const std::string& name,
                            const std::string& actual) {
  const std::string path = golden_path(name);
  if (update_mode()) {
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << actual << "\n";
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream is(path);
  ASSERT_TRUE(is) << path
                  << " missing — run with LPOMP_UPDATE_GOLDEN=1 to create";
  std::stringstream buf;
  buf << is.rdbuf();
  std::string expected = buf.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();
  EXPECT_EQ(actual, expected)
      << "reproduced " << name << " changed. If intentional, regenerate "
      << "with LPOMP_UPDATE_GOLDEN=1 and commit the diff.";
}

/// Deterministic JSON of a sweep: the records must not depend on worker
/// count, scheduling, host speed or cache state, so the golden comparison
/// uses include_host=false.
std::string deterministic_json(const SweepResult& result) {
  return result.to_json(/*include_host=*/false);
}

/// The paging axis the golden grids sweep: identity plus the two policies
/// with the most distinctive counter signatures (1 GiB's two-level walks,
/// THP's seed-keyed per-chunk promotion mix).
std::vector<paging::PolicySpec> golden_paging_axis() {
  paging::PolicySpec native;
  paging::PolicySpec huge1g;
  huge1g.policy = paging::Policy::huge1g;
  paging::PolicySpec thp;
  thp.policy = paging::Policy::thp;
  return {native, huge1g, thp};
}

TEST(GoldenFigures, Figure4SmallClass) {
  SweepSpec spec = SweepSpec::figure4(npb::Klass::S);
  spec.kernels = {npb::Kernel::CG, npb::Kernel::MG};
  spec.paging_policies = golden_paging_axis();
  Scheduler scheduler({.workers = 2});
  const SweepResult result = scheduler.run(spec);
  ASSERT_EQ(result.failed(), 0u);
  for (const RunRecord& r : result.records) ASSERT_TRUE(r.verified);
  compare_against_golden("fig4_small.json", deterministic_json(result));
}

TEST(GoldenFigures, Figure5SmallClass) {
  SweepSpec spec = SweepSpec::figure5(npb::Klass::S, /*threads=*/4);
  spec.kernels = {npb::Kernel::CG, npb::Kernel::MG};
  spec.paging_policies = golden_paging_axis();
  Scheduler scheduler({.workers = 2});
  const SweepResult result = scheduler.run(spec);
  ASSERT_EQ(result.failed(), 0u);
  for (const RunRecord& r : result.records) ASSERT_TRUE(r.verified);
  compare_against_golden("fig5_small.json", deterministic_json(result));
}

// The irregular-workload suite (GUPS random access, GT power-law BFS, PC
// pointer chase) across the full paging axis — native/hugetlb2m/huge1g/thp
// on both the paper Opteron and the modern (1 GiB-TLB + PWC) platform.
// These are the streams where the paging overlay's synthetic-walk path and
// the 1 GiB banks separate hardest from 4 KB, so their numbers are pinned
// byte-for-byte.
TEST(GoldenFigures, IrregularKernelsSmallClassPagingGrid) {
  SweepSpec spec = SweepSpec::figure5(npb::Klass::S, /*threads=*/4);
  spec.kernels = {npb::Kernel::GUPS, npb::Kernel::GT, npb::Kernel::PC};
  spec.platforms = {sim::ProcessorSpec::opteron270(),
                    sim::ProcessorSpec::modern()};
  paging::PolicySpec hugetlb2m;
  hugetlb2m.policy = paging::Policy::hugetlb2m;
  spec.paging_policies = golden_paging_axis();
  spec.paging_policies.insert(spec.paging_policies.begin() + 1, hugetlb2m);
  Scheduler scheduler({.workers = 2});
  const SweepResult result = scheduler.run(spec);
  ASSERT_EQ(result.failed(), 0u);
  for (const RunRecord& r : result.records) ASSERT_TRUE(r.verified);
  compare_against_golden("irregular_S.json", deterministic_json(result));
}

// The class-S full grid (every kernel × both platforms × thread sweep ×
// both page kinds), pinned to *reference-model* output: the snapshot is
// generated with the ThreadSim fast path disabled (the naive per-event
// configuration the differential oracle trusts), while the checked-in
// comparison runs with the fast path enabled. Counter identity between the
// two configurations is the fast path's core invariant (DESIGN.md §7) —
// any bulk-accounting change that shifts a counter diffs here against
// numbers the reference model produced.
TEST(GoldenFigures, FullGridClassSPinnedToReferenceModel) {
  SweepSpec spec = SweepSpec::figure4(npb::Klass::S);
  if (update_mode()) {
    sim::ThreadSim::set_default_fast_path(false);
  }
  Scheduler scheduler({.workers = 2});
  const SweepResult result = scheduler.run(spec);
  sim::ThreadSim::set_default_fast_path(true);
  ASSERT_EQ(result.failed(), 0u);
  for (const RunRecord& r : result.records) ASSERT_TRUE(r.verified);
  compare_against_golden("sweep_S_reference.json", deterministic_json(result));
}

}  // namespace
}  // namespace lpomp::exec

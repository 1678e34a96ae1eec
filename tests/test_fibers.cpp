// Kernels on the fiber team: every kernel's checksum and full event
// profile at 1, 2, 4 and 8 simulated threads, pinned to a checked-in
// snapshot, and a failure on one simulated thread confined to its point.
// The 8-thread points also check the fiber stack size: the sanitizer job
// runs them under AddressSanitizer, which grows every frame.
//
// To regenerate after an intentional change:
//   LPOMP_UPDATE_GOLDEN=1 ./test_fibers && git diff tests/data/
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/runtime.hpp"
#include "exec/scheduler.hpp"
#include "npb/npb.hpp"

#ifndef LPOMP_TEST_DATA_DIR
#error "LPOMP_TEST_DATA_DIR must point at tests/data"
#endif

namespace lpomp::exec {
namespace {

/// One line per point: label, verification, checksum, simulated seconds
/// and every profile event, all printed exactly.
std::string profile_line(const RunTask& task) {
  const npb::NpbResult r =
      npb::run_kernel(task.kernel, task.klass, task.runtime_config());
  char buf[96];
  std::ostringstream os;
  os << task.label() << " verified=" << r.verified;
  std::snprintf(buf, sizeof(buf), " checksum=%.17g seconds=%.17g",
                r.checksum, r.simulated_seconds);
  os << buf;
  for (const prof::Event& e : r.profile.events()) {
    os << ' ' << e.name << '=' << e.count;
  }
  return os.str();
}

TEST(Fibers, EveryKernelMatchesItsProfileAt1248Threads) {
  SweepSpec spec;
  spec.klass = npb::Klass::S;
  spec.platforms = {sim::ProcessorSpec::xeon_ht()};
  spec.page_kinds = {PageKind::small4k};
  std::string actual;
  for (const RunTask& task : spec.expand()) {
    actual += profile_line(task) + "\n";
  }
  ASSERT_EQ(spec.expand().size(), npb::all_kernels().size() * 4);

  const std::string path =
      std::string(LPOMP_TEST_DATA_DIR) + "/kernel_profiles_S.txt";
  if (std::getenv("LPOMP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path) << actual;
    GTEST_SKIP() << "updated " << path;
  }
  std::ifstream is(path);
  ASSERT_TRUE(is) << path << " missing";
  std::stringstream expected;
  expected << is.rdbuf();
  EXPECT_EQ(actual, expected.str());
}

// tid 2 throws while the other threads wait at a barrier: the point's
// record fails with the message, and the sweep's other point runs.
TEST(Fibers, ExceptionOnOneThreadFailsThePointNotTheProcess) {
  std::vector<RunTask> tasks(2);
  tasks[0].klass = npb::Klass::S;
  tasks[0].threads = 4;
  tasks[1] = tasks[0];
  tasks[1].seed = 7;
  Scheduler engine({.workers = 1});
  engine.set_task_runner([](const RunTask& task) {
    if (task.seed == 7) return Scheduler::execute_task(task);
    core::Runtime rt(task.runtime_config());
    rt.parallel([](core::ThreadCtx& ctx) {
      if (ctx.tid() == 2) throw std::runtime_error("tid 2 gave up");
      ctx.barrier();
    });
    return Scheduler::execute_task(task);
  });
  const SweepResult result = engine.run(tasks);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_FALSE(result.records[0].ok);
  EXPECT_EQ(result.records[0].error, "tid 2 gave up");
  EXPECT_TRUE(result.records[1].ok);
  EXPECT_TRUE(result.records[1].verified);
}

}  // namespace
}  // namespace lpomp::exec

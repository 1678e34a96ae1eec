// Replay-identity tests: the whole point of src/trace is that a replayed
// trace reproduces the live run's profile bit-for-bit. These tests assert
// that for every kernel, across page kinds, across platforms (a trace
// recorded while simulating the Opteron replays into the exact Xeon
// profile a live Xeon run produces), and across the full Figure 4 grid.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "exec/scheduler.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_mem.hpp"
#include "npb/npb.hpp"
#include "prof/profile.hpp"
#include "sim/thread_sim.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace lpomp {
namespace {

struct LiveRun {
  npb::NpbResult result;
  trace::Trace trace;
};

LiveRun record_live(npb::Kernel kernel, npb::Klass klass,
                    const sim::ProcessorSpec& spec, unsigned threads,
                    PageKind pages, PageKind code_pages = PageKind::small4k,
                    std::uint64_t seed = 0x5eedULL) {
  trace::TraceRecorder recorder(threads);
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.page_kind = pages;
  cfg.code_page_kind = code_pages;
  cfg.sim = core::SimConfig{spec, sim::CostModel{}, seed};
  cfg.trace_sink = &recorder;
  LiveRun live;
  live.result = npb::run_kernel(kernel, klass, cfg);

  trace::TraceMeta meta;
  meta.kernel = npb::kernel_name(kernel);
  meta.klass = npb::klass_name(klass);
  meta.threads = threads;
  meta.page_kind = pages;
  meta.platform = spec.name;
  meta.code_page_kind = code_pages;
  meta.seed = seed;
  meta.verified = live.result.verified;
  meta.checksum = live.result.checksum;
  live.trace = recorder.finish(std::move(meta));
  return live;
}

/// Every ProfileReport event, compared by name and count in report order.
void expect_profiles_identical(const prof::ProfileReport& live,
                               const prof::ProfileReport& replayed,
                               const std::string& what) {
  const std::vector<prof::Event>& a = live.events();
  const std::vector<prof::Event>& b = replayed.events();
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << what << ": event " << i;
    EXPECT_EQ(a[i].count, b[i].count) << what << ": " << a[i].name;
  }
}

TEST(TraceReplay, EveryKernelClassS) {
  for (npb::Kernel kernel : npb::all_kernels()) {
    for (PageKind pages : {PageKind::small4k, PageKind::large2m}) {
      const sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
      const LiveRun live =
          record_live(kernel, npb::Klass::S, spec, 4, pages);
      ASSERT_TRUE(live.result.verified);
      EXPECT_GT(live.trace.meta.accesses, 0u);

      trace::ReplayDriver driver(trace::ReplayConfig{spec, {}, 0x5eedULL,
                                                     PageKind::small4k});
      const trace::ReplayOutcome out = driver.run(live.trace);
      const std::string what = std::string(npb::kernel_name(kernel)) + "/" +
                               page_kind_name(pages);
      EXPECT_EQ(out.simulated_seconds, live.result.simulated_seconds) << what;
      EXPECT_EQ(out.checksum, live.result.checksum) << what;
      EXPECT_TRUE(out.verified) << what;
      expect_profiles_identical(live.result.profile, out.profile, what);
    }
  }
}

// The stream does not depend on the simulated platform: a trace recorded
// under the Opteron simulation replays into the exact profile of a live
// Xeon run (different TLBs, caches, SMT model, seed and code pages).
TEST(TraceReplay, CrossPlatformCrossSeed) {
  const sim::ProcessorSpec opteron = sim::ProcessorSpec::opteron270();
  const sim::ProcessorSpec xeon = sim::ProcessorSpec::xeon_ht();

  const LiveRun recorded = record_live(npb::Kernel::CG, npb::Klass::S,
                                       opteron, 4, PageKind::small4k);

  const std::uint64_t seed = 0xabcdef;
  const PageKind code_pages = PageKind::large2m;
  core::RuntimeConfig cfg;
  cfg.num_threads = 4;
  cfg.page_kind = PageKind::small4k;
  cfg.code_page_kind = code_pages;
  cfg.sim = core::SimConfig{xeon, sim::CostModel{}, seed};
  const npb::NpbResult live_xeon =
      npb::run_kernel(npb::Kernel::CG, npb::Klass::S, cfg);

  trace::ReplayDriver driver(
      trace::ReplayConfig{xeon, {}, seed, code_pages});
  const trace::ReplayOutcome out = driver.run(recorded.trace);
  EXPECT_EQ(out.simulated_seconds, live_xeon.simulated_seconds);
  expect_profiles_identical(live_xeon.profile, out.profile, "CG on xeon");
}

// Acceptance grid: every Figure 4 task (class S) replayed from the stream
// its (kernel, threads, page kind) group recorded once must be bit-identical
// to that task's own live run — the second platform's points replay streams
// recorded on the first. Each stream is recorded on its group's first task,
// replayed for the whole group and dropped, so one trace is held at a time.
TEST(TraceReplay, Figure4GridIdentity) {
  std::vector<std::string> keys;  // first-appearance order
  std::map<std::string, std::vector<exec::RunTask>> groups;
  for (const exec::RunTask& task :
       exec::SweepSpec::figure4(npb::Klass::S).expand()) {
    const std::string key = trace::trace_key(
        npb::kernel_name(task.kernel), npb::klass_name(task.klass),
        task.threads, task.page_kind);
    std::vector<exec::RunTask>& group = groups[key];
    if (group.empty()) keys.push_back(key);
    group.push_back(task);
  }

  std::size_t cross_platform = 0;
  for (const std::string& key : keys) {
    const std::vector<exec::RunTask>& group = groups.at(key);
    const exec::RunTask& first = group.front();
    const trace::Trace tr = record_live(first.kernel, first.klass, first.spec,
                                        first.threads, first.page_kind)
                                .trace;
    for (const exec::RunTask& task : group) {
      cross_platform += tr.meta.platform != task.spec.name ? 1 : 0;
      const npb::NpbResult live =
          npb::run_kernel(task.kernel, task.klass, task.runtime_config());
      const trace::ReplayOutcome out =
          trace::ReplayDriver(trace::ReplayConfig{task.spec, task.cost,
                                                  task.seed,
                                                  task.code_page_kind})
              .run(tr);
      EXPECT_EQ(out.simulated_seconds, live.simulated_seconds)
          << task.label();
      expect_profiles_identical(live.profile, out.profile, task.label());
    }
  }
  EXPECT_GT(cross_platform, 0u);
}

// End-to-end through the scheduler: both strategy spellings run every
// point live, and their sweeps are record-for-record identical.
TEST(TraceReplay, EngineSweepMatchesLive) {
  exec::SweepSpec spec = exec::SweepSpec::figure5(npb::Klass::S, 4);
  spec.kernels = {npb::Kernel::CG, npb::Kernel::MG};
  spec.platforms.push_back(sim::ProcessorSpec::xeon_ht());

  const exec::SweepResult automatic =
      exec::Scheduler().run(spec, exec::Strategy::Auto);
  const exec::SweepResult live =
      exec::Scheduler().run(spec, exec::Strategy::Live);

  ASSERT_EQ(automatic.records.size(), live.records.size());
  for (std::size_t i = 0; i < live.records.size(); ++i) {
    EXPECT_TRUE(live.records[i].same_result(automatic.records[i]))
        << live.records[i].kernel;
    EXPECT_EQ(live.records[i].trace_source, "live");
    EXPECT_EQ(automatic.records[i].trace_source, "live");
  }
  EXPECT_EQ(automatic.to_json(false), live.to_json(false));
}

// Replay must reject traces that do not fit the platform instead of
// crashing the simulator.
TEST(TraceReplay, RejectsImpossibleReplay) {
  const LiveRun live =
      record_live(npb::Kernel::MG, npb::Klass::S,
                  sim::ProcessorSpec::xeon_ht(), 8, PageKind::small4k);
  trace::ReplayDriver driver(trace::ReplayConfig{
      sim::ProcessorSpec::opteron270(), {}, 0x5eedULL, PageKind::small4k});
  EXPECT_THROW(driver.run(live.trace), trace::TraceError);

  trace::Trace broken = live.trace;
  broken.streams.pop_back();
  trace::ReplayDriver xeon_driver(trace::ReplayConfig{
      sim::ProcessorSpec::xeon_ht(), {}, 0x5eedULL, PageKind::small4k});
  EXPECT_THROW(xeon_driver.run(broken), trace::TraceError);

  // Each check below must fire for its own reason.
  auto rejects = [&xeon_driver](const trace::Trace& t, const char* why) {
    try {
      xeon_driver.run(t);
      ADD_FAILURE() << "replay accepted a trace that should fail: " << why;
    } catch (const trace::TraceError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };

  trace::Trace no_threads = live.trace;
  no_threads.meta.threads = 0;
  no_threads.streams.clear();
  rejects(no_threads, "at least one thread");

  // Every recorded stream ends with the end_run segment event; the cases
  // below edit thread 0's tail.
  using trace::Event;
  ASSERT_FALSE(live.trace.streams[0].empty());
  ASSERT_EQ(live.trace.streams[0].back(), Event::segment_ev());
  auto with_tail = [&live](std::initializer_list<Event> new_tail) {
    trace::Trace t = live.trace;
    std::vector<Event>& stream = t.streams[0];
    stream.pop_back();
    stream.insert(stream.end(), new_tail);
    return t;
  };
  // The stream ends before its last boundary.
  rejects(with_tail({}), "ended before its last boundary");
  // A compute event (5 cycles) after the last boundary.
  rejects(with_tail({Event::segment_ev(), Event::compute_ev(5)}),
          "after the last boundary");
  // An extra segment after the last boundary.
  rejects(with_tail({Event::segment_ev(), Event::segment_ev()}),
          "after the last boundary");
  // The unedited tail replays.
  EXPECT_NO_THROW(xeon_driver.run(with_tail({Event::segment_ev()})));
}

// A well-framed trace whose events the simulator cannot accept surfaces as
// a TraceError naming the simulator's check, not as a bare logic_error.
TEST(TraceReplay, RejectsEventsTheSimulatorRejects) {
  // The replay substrate maps the shared pool first, so it starts at its
  // arena's base.
  const vaddr_t pool_base = mem::AddressSpace::arena_base(PageKind::small4k);
  auto one_touch = [](vaddr_t addr, PageKind kind) {
    trace::Trace t;
    t.meta.kernel = "CG";
    t.meta.klass = "S";
    t.meta.threads = 1;
    t.meta.page_kind = PageKind::small4k;
    t.streams = {{trace::Event::touch_ev(addr, kind, Access::load),
                  trace::Event::segment_ev()}};
    t.boundaries = {sim::BoundaryKind::end_run};
    return t;
  };
  trace::ReplayDriver driver(trace::ReplayConfig{
      sim::ProcessorSpec::opteron270(), {}, 0x5eedULL, PageKind::small4k});
  // The well-formed touch replays; each case below breaks one thing.
  EXPECT_NO_THROW(driver.run(one_touch(pool_base, PageKind::small4k)));

  for (const auto& [t, why] :
       {// Case 1: an address no region maps.
        std::pair{one_touch(pool_base + GiB(1), PageKind::small4k),
                  "unmapped address"},
        // Case 2: a page kind the pool's 4 KB layout does not have.
        std::pair{one_touch(pool_base, PageKind::large2m),
                  "layout mismatch"}}) {
    try {
      driver.run(t);
      ADD_FAILURE() << "replay accepted a trace that should fail: " << why;
    } catch (const trace::TraceError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rejected by simulator"), std::string::npos)
          << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
  }
}

// A trace whose metadata names a kernel or class outside the npb tables
// replays as a TraceError that lists the table, not a guess.
TEST(TraceReplay, RejectsKernelOrClassOutsideTheTables) {
  const LiveRun live =
      record_live(npb::Kernel::CG, npb::Klass::S,
                  sim::ProcessorSpec::opteron270(), 1, PageKind::small4k);
  trace::ReplayDriver driver(trace::ReplayConfig{
      sim::ProcessorSpec::opteron270(), {}, 0x5eedULL, PageKind::small4k});
  for (const auto& [kernel, klass, why] :
       {std::tuple{"cg", "S", "unknown kernel 'cg' (valid: BT, CG"},
        std::tuple{"", "S", "unknown kernel '' (valid: BT, CG"},
        std::tuple{"CG", "Q", "unknown class 'Q' (valid: S, W, A, B, R)"},
        std::tuple{"CG", "s", "unknown class 's' (valid: S, W, A, B, R)"}}) {
    trace::Trace t = live.trace;
    t.meta.kernel = kernel;
    t.meta.klass = klass;
    try {
      driver.run(t);
      ADD_FAILURE() << kernel << "." << klass << " was replayed";
    } catch (const trace::TraceError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
}

// --- event framing ----------------------------------------------------------

// A live touch_run/touch_strided must surface at the TraceSink as ONE run
// (or strided) event — never as n singles — and stride-8 strided calls must
// canonicalise to run framing. Any framing drift here silently changes the
// events of every recorded trace.
TEST(TraceFraming, LiveEntryPointsReportSingleEvents) {
  mem::PhysMem pm{MiB(32)};
  mem::AddressSpace space{pm};
  const mem::Region r = space.map_region(MiB(2), PageKind::small4k, "data");
  const sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
  sim::ThreadSim ts(space, spec.itlb, spec.l1_dtlb, spec.l2_dtlb, spec.l1d,
                    spec.l2, 1);
  trace::TraceRecorder rec(1);
  ts.set_trace_sink(&rec, 0);

  ts.touch(r.base, PageKind::small4k, Access::load);
  ts.touch_run(r.base, 500, PageKind::small4k, Access::store);
  ts.touch_strided(r.base + 4096, 300, 64, PageKind::small4k, Access::load);
  ts.touch_strided(r.base, 200, 8, PageKind::small4k, Access::load);
  ts.add_compute(42);

  trace::TraceMeta meta;
  meta.kernel = "CG";
  meta.klass = "S";
  meta.threads = 1;
  const trace::Trace trace = rec.finish(std::move(meta));
  EXPECT_EQ(trace.meta.accesses, 1u + 500u + 300u + 200u);
  EXPECT_EQ(trace.key(), "CG.S/1T/4KB");

  const std::vector<trace::Event> expected = {
      trace::Event::touch_ev(r.base, PageKind::small4k, Access::load),
      trace::Event::run_ev(r.base, 500, PageKind::small4k, Access::store),
      trace::Event::strided_ev(r.base + 4096, 300, 64, PageKind::small4k,
                               Access::load),
      // stride 8 canonicalises to run framing at every layer.
      trace::Event::run_ev(r.base, 200, PageKind::small4k, Access::load),
      trace::Event::compute_ev(42),
  };
  ASSERT_EQ(trace.streams.size(), 1u);
  EXPECT_EQ(trace.streams[0], expected);
}

// The replay side of the same invariant: ReplayDriver passes each recorded
// event through the live entry points, so an attached sink sees the
// identical event sequence with identical framing, and re-recording a
// replay reproduces the original trace event-for-event. CG covers runs and
// gathers; FT covers strided framing (its root-table scan records strided
// events).
TEST(TraceFraming, ReplayReRecordsIdenticalBytes) {
  for (npb::Kernel kernel : {npb::Kernel::CG, npb::Kernel::FT}) {
    const LiveRun live =
        record_live(kernel, npb::Klass::S, sim::ProcessorSpec::opteron270(),
                    2, PageKind::small4k);

    trace::TraceRecorder rerec(live.trace.meta.threads);
    trace::ReplayConfig cfg;
    cfg.resink = &rerec;
    trace::ReplayDriver driver(cfg);
    driver.run(live.trace);

    const trace::Trace re = rerec.finish(live.trace.meta);
    ASSERT_EQ(re.streams.size(), live.trace.streams.size());
    for (std::size_t t = 0; t < re.streams.size(); ++t) {
      EXPECT_EQ(re.streams[t], live.trace.streams[t])
          << npb::kernel_name(kernel) << " thread " << t
          << ": replay re-record diverged from the original events";
    }
    EXPECT_EQ(re.boundaries, live.trace.boundaries);
    EXPECT_EQ(re.meta.accesses, live.trace.meta.accesses);
  }
}

}  // namespace
}  // namespace lpomp

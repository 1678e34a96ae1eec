// Replay-identity tests: the whole point of src/trace is that a replayed
// trace reproduces the live run's profile bit-for-bit. These tests assert
// that for every kernel, across page kinds, across platforms (a trace
// recorded while simulating the Opteron replays into the exact Xeon
// profile a live Xeon run produces), and across the full Figure 4 grid.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "exec/scheduler.hpp"
#include "mem/address_space.hpp"
#include "mem/phys_mem.hpp"
#include "npb/npb.hpp"
#include "prof/profile.hpp"
#include "sim/thread_sim.hpp"
#include "trace/codec.hpp"
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
// recorded on the first.
TEST(TraceReplay, Figure4GridIdentity) {
  std::map<std::string, trace::Trace> streams;
  std::size_t cross_platform = 0;
  for (const exec::RunTask& task :
       exec::SweepSpec::figure4(npb::Klass::S).expand()) {
    const std::string key = trace::trace_key(
        npb::kernel_name(task.kernel), npb::klass_name(task.klass),
        task.threads, task.page_kind);
    if (streams.count(key) == 0) {
      streams.emplace(key, record_live(task.kernel, task.klass, task.spec,
                                       task.threads, task.page_kind)
                               .trace);
    }
    const trace::Trace& tr = streams.at(key);
    cross_platform += tr.meta.platform != task.spec.name ? 1 : 0;
    const npb::NpbResult live =
        npb::run_kernel(task.kernel, task.klass, task.runtime_config());
    const trace::ReplayOutcome out =
        trace::ReplayDriver(trace::ReplayConfig{task.spec, task.cost,
                                                task.seed,
                                                task.code_page_kind})
            .run(tr);
    EXPECT_EQ(out.simulated_seconds, live.simulated_seconds) << task.label();
    expect_profiles_identical(live.profile, out.profile, task.label());
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

// --- corrupt-trace fuzz -----------------------------------------------------
//
// Concrete corruptions of otherwise well-formed streams, each of which the
// replay decode must reject with the recoverable TraceError — never a
// crash or a silently wrong profile — so a caller can fall back to running
// the task live, which stays bit-identical to the scheduler's own record.

void expect_corrupt_falls_back(const exec::RunTask& task,
                               const trace::Trace& corrupt,
                               const std::string& what) {
  trace::ReplayDriver driver(trace::ReplayConfig{
      sim::ProcessorSpec::opteron270(), {}, 0x5eedULL, PageKind::small4k});
  EXPECT_THROW(driver.run(corrupt), trace::TraceError) << what;

  const exec::RunRecord live = exec::Scheduler::execute_task(task);
  exec::Scheduler scheduler({.workers = 1});
  const exec::SweepResult swept =
      scheduler.run(std::vector<exec::RunTask>{task});
  ASSERT_EQ(swept.records.size(), 1u);
  EXPECT_TRUE(swept.records[0].ok) << what;
  EXPECT_EQ(live.to_json(false), swept.records[0].to_json(false)) << what;
}

// Case 1: a genuine recorded stream truncated in the middle of its REPEAT
// records — the tail (END marker and trailing segments) is gone, so decode
// runs off the end.
TEST(TraceReplay, TruncatedPatternBlockFallsBack) {
  exec::SweepSpec spec = exec::SweepSpec::figure5(npb::Klass::S, 2);
  spec.kernels = {npb::Kernel::MG};
  const std::vector<exec::RunTask> tasks = spec.expand();
  ASSERT_FALSE(tasks.empty());
  const exec::RunTask& task = tasks.front();

  const LiveRun live =
      record_live(npb::Kernel::MG, npb::Klass::S,
                  sim::ProcessorSpec::opteron270(), task.threads,
                  task.page_kind);
  trace::Trace corrupt = live.trace;
  std::string& stream = corrupt.streams.back();
  ASSERT_GT(stream.size(), 16u);
  stream.resize(stream.size() / 2);

  expect_corrupt_falls_back(task, corrupt, "truncated pattern block");
}

// Case 2: a single bit flipped in a STRIDED block's opcode header turns it
// into an unknown opcode — framing validation must reject the stream, not
// misparse the payload bytes that follow.
TEST(TraceReplay, BitFlippedStrideHeaderFallsBack) {
  exec::SweepSpec spec = exec::SweepSpec::figure5(npb::Klass::S, 2);
  spec.kernels = {npb::Kernel::CG};
  const std::vector<exec::RunTask> tasks = spec.expand();
  ASSERT_FALSE(tasks.empty());
  const exec::RunTask& task = tasks.front();

  // Hand-built well-formed streams whose first event is a strided run, so
  // the byte to corrupt sits at a known offset. (The uncorrupted trace is
  // never replayed; this test is about the corrupted bytes being
  // *rejected*, not about stream content.)
  trace::Trace corrupt;
  corrupt.meta.kernel = task.kernel == npb::Kernel::CG ? "CG" : "MG";
  corrupt.meta.klass = "S";
  corrupt.meta.threads = task.threads;
  corrupt.meta.page_kind = task.page_kind;
  corrupt.meta.verified = true;
  corrupt.boundaries = {sim::BoundaryKind::end_run};
  for (unsigned t = 0; t < task.threads; ++t) {
    trace::ThreadEncoder enc;
    enc.touch_strided(0x10'0000, 300, 64, task.page_kind, Access::load);
    enc.touch_run(0x10'0000, 64, task.page_kind, Access::store);
    enc.segment();
    enc.finish();
    corrupt.streams.push_back(enc.take_bytes());
  }

  // The wire begins with the STRIDED opcode (0x05); one flipped bit makes
  // it an opcode the grammar does not define (0x25).
  std::string& stream = corrupt.streams.front();
  ASSERT_EQ(static_cast<std::uint8_t>(stream[0]), 0x05u);
  stream[0] = static_cast<char>(static_cast<std::uint8_t>(stream[0]) ^ 0x20);

  expect_corrupt_falls_back(task, corrupt, "bit-flipped stride header");
}

// Case 3: every irregular kernel's genuine recorded stream, truncated
// mid-stream. Their wire shape is singleton-dominated (GUPS random indexes
// and PC dependent chases give stride-RLE nothing to coalesce), so the
// decoder loses the framing structure regular kernels would fail on much
// earlier — the cut must still be rejected at decode time.
TEST(TraceReplay, IrregularKernelsCorruptTraceFallsBack) {
  for (npb::Kernel kernel :
       {npb::Kernel::GUPS, npb::Kernel::GT, npb::Kernel::PC}) {
    exec::SweepSpec spec = exec::SweepSpec::figure5(npb::Klass::S, 2);
    spec.kernels = {kernel};
    const std::vector<exec::RunTask> tasks = spec.expand();
    ASSERT_FALSE(tasks.empty());
    const exec::RunTask& task = tasks.front();

    const LiveRun live =
        record_live(kernel, npb::Klass::S, sim::ProcessorSpec::opteron270(),
                    task.threads, task.page_kind);
    ASSERT_TRUE(live.result.verified);
    trace::Trace corrupt = live.trace;
    std::string& stream = corrupt.streams.back();
    ASSERT_GT(stream.size(), 16u);
    stream.resize(stream.size() / 2);

    expect_corrupt_falls_back(task, corrupt,
                              std::string("truncated ") +
                                  npb::kernel_name(kernel) + " stream");
  }
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

  // Every recorded stream ends with the end_run SEGMENT (0x01) and the END
  // marker (0x02); the cases below edit thread 0's tail.
  const std::string& tail = live.trace.streams[0];
  ASSERT_GE(tail.size(), 2u);
  ASSERT_EQ(tail.substr(tail.size() - 2), std::string("\x01\x02", 2));
  auto with_tail = [&live](const std::string& new_tail) {
    trace::Trace t = live.trace;
    std::string& stream = t.streams[0];
    stream.replace(stream.size() - 2, 2, new_tail);
    return t;
  };
  // The stream ends before its last boundary.
  rejects(with_tail(std::string("\x02", 1)), "ended before its last boundary");
  // A COMPUTE event (5 cycles) after the last boundary.
  rejects(with_tail(std::string("\x01\x03\x05\x02", 4)),
          "after the last boundary");
  // An extra SEGMENT after the last boundary.
  rejects(with_tail(std::string("\x01\x01\x02", 3)),
          "after the last boundary");
  // The unedited tail replays.
  const std::string intact("\x01\x02", 2);
  EXPECT_NO_THROW(xeon_driver.run(with_tail(intact)));
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
// wire bytes of every recorded trace.
TEST(TraceFraming, LiveEntryPointsReportSingleEvents) {
  mem::PhysMem pm{MiB(32)};
  mem::AddressSpace space{pm};
  const mem::Region r = space.map_region(MiB(2), PageKind::small4k, "data");
  const sim::CostModel cm;
  const sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
  sim::ThreadSim ts(cm, space, spec.itlb, spec.l1_dtlb, spec.l2_dtlb,
                    spec.l1d, spec.l2, 1);
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

  trace::ThreadDecoder dec(trace.streams[0]);
  const trace::Event expected[] = {
      trace::Event::touch_ev(r.base, PageKind::small4k, Access::load),
      trace::Event::run_ev(r.base, 500, PageKind::small4k, Access::store),
      trace::Event::strided_ev(r.base + 4096, 300, 64, PageKind::small4k,
                               Access::load),
      // stride 8 canonicalises to run framing at every layer.
      trace::Event::run_ev(r.base, 200, PageKind::small4k, Access::load),
      trace::Event::compute_ev(42),
  };
  for (const trace::Event& want : expected) {
    const trace::ThreadDecoder::Item item = dec.next();
    ASSERT_EQ(item.kind, trace::ThreadDecoder::ItemKind::event);
    EXPECT_EQ(item.event, want);
  }
  EXPECT_EQ(dec.next().kind, trace::ThreadDecoder::ItemKind::end);
}

// The replay side of the same invariant: ReplayDriver passes each decoded
// event through the live entry points, so an attached sink sees the
// identical event sequence with identical framing, and re-recording a
// replay reproduces the original trace byte-for-byte. CG covers runs and
// gathers; FT covers strided framing (its root-table scan records STRIDED
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
          << ": replay re-record diverged from the original bytes";
    }
    EXPECT_EQ(re.boundaries, live.trace.boundaries);
    EXPECT_EQ(re.meta.accesses, live.trace.meta.accesses);
  }
}

}  // namespace
}  // namespace lpomp

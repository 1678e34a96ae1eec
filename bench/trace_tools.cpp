// Replay bench: records kernel access streams in memory and times each
// stream's replay against a live run of the configuration that recorded it.
//
//   trace_tools bench --kernels=CG --klass=S,W [--threads=4]
//                     [--pages=4KB|2MB] [--repeat=10] [--json-out=FILE]
//
// Every (kernel, class) pair is recorded once on the Opteron at seed
// 0x5eed with 4 KB code pages, live with a TraceRecorder attached. Its
// live run and its replay under the same configuration are then timed
// --repeat times each (minimum, with the median and maximum beside it),
// and the two must agree counter-for-counter: a timing from diverging runs
// would be meaningless. The replay-over-live ratio of the minima is what
// CI gates on. Each row also reports the recorded trace's in-memory size
// (Trace::bytes()). A recording whose kernel fails verification exits 2;
// diverging counters exit 1.
#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "bench/bench_common.hpp"
#include "exec/json.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

using namespace lpomp;

namespace {

/// Runs `task` live with a TraceRecorder attached. Returns the live result
/// and stores the recorded stream in `out` (its meta carries the run's
/// verified/checksum, which replays copy through).
npb::NpbResult record_live(const exec::RunTask& task, trace::Trace& out) {
  trace::TraceRecorder recorder(task.threads);
  core::RuntimeConfig cfg = task.runtime_config();
  cfg.trace_sink = &recorder;
  const npb::NpbResult r = npb::run_kernel(task.kernel, task.klass, cfg);
  trace::TraceMeta meta;
  meta.kernel = npb::kernel_name(task.kernel);
  meta.klass = npb::klass_name(task.klass);
  meta.threads = task.threads;
  meta.page_kind = task.page_kind;
  meta.platform = task.spec.name;
  meta.code_page_kind = task.code_page_kind;
  meta.seed = task.seed;
  meta.verified = r.verified;
  meta.checksum = r.checksum;
  out = recorder.finish(std::move(meta));
  return r;
}

/// The replay knobs of `task`: platform, cost model, seed, code pages and
/// paging policy.
trace::ReplayConfig replay_config(const exec::RunTask& task) {
  trace::ReplayConfig cfg{task.spec, task.cost, task.seed,
                          task.code_page_kind};
  cfg.paging = task.paging;
  return cfg;
}

/// True when a replay reproduced every profile counter and the simulated
/// time of a live run.
bool same_counters(const npb::NpbResult& live,
                   const trace::ReplayOutcome& replay) {
  const std::vector<prof::Event>& a = live.profile.events();
  const std::vector<prof::Event>& b = replay.profile.events();
  bool same = live.simulated_seconds == replay.simulated_seconds &&
              a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].name == b[i].name && a[i].count == b[i].count;
  }
  return same;
}

/// Wall time of --repeat runs of one side: the minimum, which the ratio
/// and the CI gate use, and the median and maximum, which show how far the
/// host moved the runs.
struct RepeatTimes {
  double min_ms = 0.0;
  double median_ms = 0.0;
  double max_ms = 0.0;
};

/// One stream's bench measurements: the walls of the live run and of its
/// replay under the same configuration, the ratio of their minima, a
/// counter-identity verdict, the stream's element-access count and the
/// recorded trace's size.
struct BenchEntry {
  std::string trace_key;
  std::string platform;
  std::uint64_t accesses = 0;
  std::uint64_t trace_bytes = 0;
  RepeatTimes live;
  RepeatTimes replay;
  double replay_over_live = 0.0;
  bool identical = false;
};

BenchEntry bench_one(const exec::RunTask& task, int repeat) {
  trace::Trace trace;
  const npb::NpbResult recorded = record_live(task, trace);
  if (!recorded.verified) {
    std::cerr << "VERIFICATION FAILED: " << task.label()
              << ": not timing the replay of a wrong run\n";
    std::exit(2);
  }

  using clock = std::chrono::steady_clock;
  auto time_ms = [repeat](auto&& fn) {
    std::vector<double> ms;
    for (int r = 0; r < repeat; ++r) {
      const auto t0 = clock::now();
      fn();
      ms.push_back(
          std::chrono::duration<double, std::milli>(clock::now() - t0)
              .count());
    }
    std::sort(ms.begin(), ms.end());
    const std::size_t mid = ms.size() / 2;
    return RepeatTimes{
        ms.front(),
        ms.size() % 2 == 1 ? ms[mid] : (ms[mid - 1] + ms[mid]) / 2,
        ms.back()};
  };

  BenchEntry e;
  e.trace_key = trace.key();
  e.platform = task.spec.name;
  e.accesses = trace.meta.accesses;
  e.trace_bytes = trace.bytes();
  npb::NpbResult live;
  e.live = time_ms([&] {
    live = npb::run_kernel(task.kernel, task.klass, task.runtime_config());
  });
  trace::ReplayOutcome replayed;
  e.replay = time_ms([&] {
    replayed = trace::ReplayDriver(replay_config(task)).run(trace);
  });
  e.identical = same_counters(live, replayed);
  e.replay_over_live = e.replay.min_ms / e.live.min_ms;
  return e;
}

/// --json-out writes the rows CI compares against its committed reference:
/// replay_over_live is a same-host ratio, so CI gates on it.
int cmd_bench(const Options& opts) {
  opts.require_known(
      {"kernels", "klass", "threads", "pages", "repeat", "json-out"},
      bench::kStrategyKeys);
  const std::vector<npb::Kernel> kernels = opts.get_names(
      "kernels", "CG", npb::kernel_from_name, npb::kKernels);
  const std::vector<npb::Klass> klasses =
      opts.get_names("klass", "S", npb::klass_from_name, npb::kKlasses);
  exec::RunTask task;
  task.threads = static_cast<unsigned>(
      opts.get_unsigned("threads", 4, task.spec.max_threads(), 1));
  task.page_kind = bench::page_kind_from(opts, "pages");
  const int repeat = static_cast<int>(opts.get_unsigned(
      "repeat", 10, std::numeric_limits<int>::max(), 1));
  const std::string json_path = opts.get("json-out", "");

  std::vector<BenchEntry> entries;
  bool all_same = true;
  for (const npb::Kernel kernel : kernels) {
    for (const npb::Klass klass : klasses) {
      task.kernel = kernel;
      task.klass = klass;
      const BenchEntry e = bench_one(task, repeat);
      all_same = all_same && e.identical;
      std::cout << "replay bench " << e.trace_key << " on " << e.platform
                << " (min of " << repeat << ", " << format_count(e.accesses)
                << " accesses, " << format_bytes(e.trace_bytes)
                << " trace):\n"
                << "  live     " << format_ratio(e.live.min_ms)
                << " ms (the recorded configuration, untraced; median "
                << format_ratio(e.live.median_ms) << ", max "
                << format_ratio(e.live.max_ms) << ")\n"
                << "  replay   " << format_ratio(e.replay.min_ms)
                << " ms (per-event replay of the recorded stream; median "
                << format_ratio(e.replay.median_ms) << ", max "
                << format_ratio(e.replay.max_ms) << ")\n"
                << "  ratio    " << format_ratio(e.replay_over_live)
                << "x replay over live; counters "
                << (e.identical ? "identical" : "DIFFER") << "\n";
      entries.push_back(e);
    }
  }

  if (!json_path.empty()) {
    exec::JsonWriter w;
    w.begin_object();
    w.field("schema", "lpomp-bench-replay-v3");
    w.field("repeat", static_cast<std::uint64_t>(repeat));
    w.field("identical", all_same);
    w.key("entries");
    w.begin_array();
    for (const BenchEntry& e : entries) {
      w.begin_object();
      w.field("trace", e.trace_key);
      w.field("platform", e.platform);
      w.field("accesses", e.accesses);
      w.field("trace_bytes", e.trace_bytes);
      w.field("live_ms", e.live.min_ms);
      w.field("live_median_ms", e.live.median_ms);
      w.field("live_max_ms", e.live.max_ms);
      w.field("replay_ms", e.replay.min_ms);
      w.field("replay_median_ms", e.replay.median_ms);
      w.field("replay_max_ms", e.replay.max_ms);
      w.field("replay_over_live", e.replay_over_live);
      w.field("identical", e.identical);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "cannot write --json-out=" << json_path << "\n";
      return 2;
    }
    os << w.str() << "\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return all_same ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, 1);  // the subcommand
  bench::reject_removed_flags(opts);
  if (!opts.positional().empty() && opts.positional().front() == "bench") {
    return cmd_bench(opts);
  }
  std::cerr << "usage: trace_tools bench --kernels=CG --klass=S,W "
               "[--threads=4] [--pages=4KB|2MB] [--repeat=10] "
               "[--json-out=FILE]\n";
  return 2;
}

// Trace workbench: record kernel access traces to files, replay them on any
// platform/cost configuration, and analyse their locality structure.
//
//   trace_tools record    --kernel=CG --klass=S --threads=4 --pages=2MB
//                         --out=cg.lptrace [--platform=opteron] [--seed=N]
//   trace_tools replay    --in=cg.lptrace [--platform=xeon] [--seed=N]
//                         [--code-pages=4KB] [--check]
//   trace_tools bench     --in=cg_s.lptrace,cg_w.lptrace [--repeat=10]
//                         [--json-out=FILE]
//   trace_tools stats     --in=cg.lptrace
//
// `record` runs the kernel live with the recorder attached and writes the
// compressed trace. `replay` re-drives the simulator from the file and
// prints the profile; with --check it also runs the same config live and
// verifies every counter matches bit-for-bit. `bench` times a replay of
// each trace against the live run that recorded it (same platform, seed
// and code pages; minimum of --repeat runs each, with their median and
// maximum beside it) and asserts the two agree counter-for-counter — the
// replay-over-live ratio of the minima is what CI gates on.
// `stats` decodes the trace and prints stride histograms, hot-page counts
// and reuse-distance profiles at 4 KB and 2 MB granularity — the
// quantities that explain which kernels large pages help.
#include <algorithm>
#include <chrono>
#include <vector>

#include "bench/bench_common.hpp"
#include "exec/json.hpp"
#include "trace/io.hpp"
#include "trace/stats.hpp"

using namespace lpomp;

namespace {

/// The live-run configuration a trace was recorded under (recording
/// platform, seed and code pages; default cost model and paging). Throws
/// TraceError when the recording platform is not a built-in one.
exec::RunTask task_of(const trace::Trace& trace) {
  const trace::TraceMeta& meta = trace.meta;
  exec::RunTask task;
  task.kernel = or_unknown<trace::TraceError>(
      npb::kernel_from_name(meta.kernel), npb::kKernels, meta.kernel);
  task.klass = or_unknown<trace::TraceError>(npb::klass_from_name(meta.klass),
                                             npb::kKlasses, meta.klass);
  const std::optional<sim::ProcessorSpec> spec =
      sim::ProcessorSpec::from_name(meta.platform);
  if (!spec) {
    throw trace::TraceError("trace: recorded on unknown platform '" +
                            meta.platform + "'");
  }
  task.spec = *spec;
  task.threads = meta.threads;
  task.page_kind = meta.page_kind;
  task.code_page_kind = meta.code_page_kind;
  task.seed = meta.seed;
  return task;
}

/// --key's value; throws OptionError when it is absent or empty.
std::string required(const Options& opts, const char* key) {
  const std::string v = opts.get(key, "");
  if (v.empty()) throw OptionError(std::string("need --") + key + "=<file>");
  return v;
}

void print_profile(const prof::ProfileReport& profile, double seconds) {
  profile.print(std::cout);
  std::cout << "simulated time: " << format_seconds(seconds) << "s\n";
}

int cmd_record(const Options& opts) {
  opts.require_known({"kernel", "klass", "platform", "threads", "pages",
                      "code-pages", "seed", "out"},
                     bench::kStrategyKeys);
  const std::string out = required(opts, "out");
  exec::RunTask task;
  task.kernel = opts.get_name("kernel", "CG", npb::kernel_from_name,
                              npb::kKernels);
  task.klass = bench::klass_from(opts, "S");
  task.spec = bench::platform_from(opts);
  task.threads = static_cast<unsigned>(
      opts.get_unsigned("threads", 4, std::numeric_limits<unsigned>::max(), 1));
  task.page_kind = bench::page_kind_from(opts, "pages");
  task.code_page_kind = bench::page_kind_from(opts, "code-pages");
  task.seed = opts.get_unsigned("seed", 0x5eed);

  trace::Trace trace;
  const npb::NpbResult r = bench::record_live(task, trace);
  if (!r.verified) {
    std::cerr << "record: kernel failed verification — not writing a trace\n";
    return 2;
  }
  trace::save_trace_file(out, trace);

  std::size_t bytes = 0;
  for (const std::string& s : trace.streams) bytes += s.size();
  std::cout << "recorded " << trace.key() << ": "
            << format_count(trace.meta.accesses) << " accesses, "
            << trace.boundaries.size() << " boundaries, "
            << format_bytes(bytes) << " encoded ("
            << format_ratio(8.0 * static_cast<double>(bytes) /
                            static_cast<double>(trace.meta.accesses))
            << " bits/access) -> " << out << "\n";
  print_profile(r.profile, r.simulated_seconds);
  return 0;
}

int cmd_replay(const Options& opts) {
  opts.require_known({"in", "platform", "seed", "code-pages", "check"},
                     bench::kStrategyKeys);
  const trace::Trace trace = trace::load_trace_file(required(opts, "in"));
  trace::ReplayConfig cfg;
  cfg.spec = bench::platform_from(opts);
  cfg.seed = opts.get_unsigned("seed", 0x5eed);
  cfg.code_page_kind = bench::page_kind_from(opts, "code-pages");

  std::cout << "replaying " << trace.key() << " (recorded on "
            << trace.meta.platform << ") on " << cfg.spec.name << "\n";
  const trace::ReplayOutcome out = trace::ReplayDriver(cfg).run(trace);
  print_profile(out.profile, out.simulated_seconds);

  if (opts.get_flag("check")) {
    exec::RunTask task = task_of(trace);
    task.spec = cfg.spec;
    task.code_page_kind = cfg.code_page_kind;
    task.seed = cfg.seed;
    const bool same = bench::same_counters(
        npb::run_kernel(task.kernel, task.klass, task.runtime_config()), out);
    std::cout << "live check: counters "
              << (same ? "identical" : "DIFFER") << "\n";
    if (!same) return 1;
  }
  return 0;
}

/// Wall time of --repeat runs of one side: the minimum, which the ratio
/// and the CI gate use, and the median and maximum, which show how far the
/// host moved the runs.
struct RepeatTimes {
  double min_ms = 0.0;
  double median_ms = 0.0;
  double max_ms = 0.0;
};

/// One trace's bench measurements: the walls of the live run that recorded
/// it and of its replay under the same configuration, the ratio of their
/// minima, a counter-identity verdict, and the trace's element-access count.
struct BenchEntry {
  std::string trace_key;
  std::string platform;
  std::uint64_t accesses = 0;
  RepeatTimes live;
  RepeatTimes replay;
  double replay_over_live = 0.0;
  bool identical = false;
};

BenchEntry bench_one(const std::string& path, int repeat) {
  const trace::Trace trace = trace::load_trace_file(path);
  const exec::RunTask task = task_of(trace);

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
  e.accesses = trace::analyze_trace(trace).element_accesses;
  npb::NpbResult live;
  e.live = time_ms([&] {
    live = npb::run_kernel(task.kernel, task.klass, task.runtime_config());
  });
  trace::ReplayOutcome replayed;
  e.replay = time_ms([&] {
    replayed = trace::ReplayDriver(bench::replay_config(task)).run(trace);
  });
  e.identical = bench::same_counters(live, replayed);
  e.replay_over_live = e.replay.min_ms / e.live.min_ms;
  return e;
}

/// Replay micro-benchmark: each trace's interpreted replay against the
/// live run that recorded it, minimum of --repeat runs each. The two must
/// agree counter-for-counter — a timing from diverging runs would be
/// meaningless — so the bench doubles as an identity check. --in accepts a
/// comma-separated trace list (CI measures a class S and a class W
/// stream). --json-out writes the rows CI compares against its committed
/// reference: replay_over_live is a same-host ratio, so CI gates on it.
int cmd_bench(const Options& opts) {
  opts.require_known({"in", "repeat", "json-out"}, bench::kStrategyKeys);
  const std::vector<std::string> paths = split_list(required(opts, "in"));
  const int repeat = std::max(1, static_cast<int>(opts.get_int("repeat", 10)));

  std::vector<BenchEntry> entries;
  bool all_same = true;
  for (const std::string& path : paths) {
    const BenchEntry e = bench_one(path, repeat);
    all_same = all_same && e.identical;
    std::cout << "replay bench " << e.trace_key << " on " << e.platform
              << " (min of " << repeat << ", " << format_count(e.accesses)
              << " accesses):\n"
              << "  live     " << format_ratio(e.live.min_ms)
              << " ms (the run that recorded the trace; median "
              << format_ratio(e.live.median_ms) << ", max "
              << format_ratio(e.live.max_ms) << ")\n"
              << "  replay   " << format_ratio(e.replay.min_ms)
              << " ms (stream decode + per-event replay; median "
              << format_ratio(e.replay.median_ms) << ", max "
              << format_ratio(e.replay.max_ms) << ")\n"
              << "  ratio    " << format_ratio(e.replay_over_live)
              << "x replay over live; counters "
              << (e.identical ? "identical" : "DIFFER") << "\n";
    entries.push_back(e);
  }

  const std::string json_path = opts.get("json-out", "");
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

void print_histogram(const char* title, const std::vector<std::uint64_t>& h,
                     std::uint64_t total) {
  std::cout << title << "\n";
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (h[i] == 0) continue;
    const std::uint64_t lo = i == 0 ? 0 : (1ULL << (i - 1));
    const std::uint64_t hi = i == 0 ? 0 : (1ULL << i) - 1;
    std::cout << "  [" << format_count(lo) << ", " << format_count(hi)
              << "]  " << format_count(h[i]) << "  ("
              << format_percent(static_cast<double>(h[i]) /
                                static_cast<double>(total))
              << ")\n";
  }
}

int cmd_stats(const Options& opts) {
  opts.require_known({"in"}, bench::kStrategyKeys);
  const trace::Trace trace = trace::load_trace_file(required(opts, "in"));
  std::cout << "trace " << trace.key() << " recorded on "
            << trace.meta.platform << " (seed " << trace.meta.seed
            << ", code pages "
            << page_kind_name(trace.meta.code_page_kind) << ", checksum "
            << trace.meta.checksum << ")\n";

  const trace::TraceStats s = trace::analyze_trace(trace);
  std::cout << "events: " << format_count(s.touch_events) << " touch/run, "
            << format_count(s.compute_events) << " compute, " << s.segments
            << " boundaries\n";
  std::cout << "element accesses: " << format_count(s.element_accesses)
            << " (" << format_count(s.loads) << " loads, "
            << format_count(s.stores) << " stores), encoded in "
            << format_bytes(s.encoded_bytes) << " = "
            << format_ratio(s.bits_per_access()) << " bits/access\n";

  std::cout << "\nstride profile: " << format_percent(
                   static_cast<double>(s.strides.unit) /
                   static_cast<double>(std::max<std::uint64_t>(
                       1, s.strides.total())))
            << " unit-stride, " << format_count(s.strides.forward)
            << " forward vs " << format_count(s.strides.backward)
            << " backward\n";
  print_histogram("stride magnitude histogram (bytes):", s.strides.buckets,
                  std::max<std::uint64_t>(1, s.strides.total()));

  auto page_summary = [](const char* label,
                         const std::unordered_map<std::uint64_t,
                                                  std::uint64_t>& pages,
                         const trace::ReuseDistance& reuse,
                         std::uint64_t tlb_entries) {
    std::uint64_t hottest = 0;
    for (const auto& [page, count] : pages) {
      hottest = std::max(hottest, count);
    }
    std::cout << label << ": " << format_count(pages.size())
              << " pages touched, hottest " << format_count(hottest)
              << " touches; reuse distance < " << tlb_entries
              << " pages covers "
              << format_percent(reuse.coverage(tlb_entries))
              << " of warm accesses (" << format_count(reuse.cold_misses())
              << " cold)\n";
  };
  std::cout << "\n";
  // Coverage thresholds: the Opteron's 32-entry / 8-entry L1 DTLBs — the
  // paper's Table 1 geometry this analysis exists to explain.
  page_summary("4KB pages", s.touches_per_4k_page, s.reuse_4k, 32);
  page_summary("2MB pages", s.touches_per_2m_page, s.reuse_2m, 8);

  print_histogram("\nreuse-distance histogram (4KB pages):",
                  s.reuse_4k.histogram(),
                  std::max<std::uint64_t>(1, s.reuse_4k.touches() -
                                                 s.reuse_4k.cold_misses()));
  print_histogram("reuse-distance histogram (2MB pages):",
                  s.reuse_2m.histogram(),
                  std::max<std::uint64_t>(1, s.reuse_2m.touches() -
                                                 s.reuse_2m.cold_misses()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv, 1);  // the subcommand
  bench::reject_removed_flags(opts);
  const std::string cmd =
      opts.positional().empty() ? "" : opts.positional().front();
  try {
    if (cmd == "record") return cmd_record(opts);
    if (cmd == "replay") return cmd_replay(opts);
    if (cmd == "bench") return cmd_bench(opts);
    if (cmd == "stats") return cmd_stats(opts);
  } catch (const trace::TraceError& e) {
    std::cerr << "trace error: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "usage: trace_tools <record|replay|bench|stats> [options]\n"
               "  record    --kernel=CG --klass=S --threads=4 --pages=4KB|2MB "
               "--out=FILE\n"
               "  replay    --in=FILE [--platform=opteron|xeon|modern] "
               "[--check]\n"
               "  bench     --in=FILE[,FILE...] [--repeat=10] "
               "[--json-out=FILE]\n"
               "  stats     --in=FILE\n";
  return 2;
}

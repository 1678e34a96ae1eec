// lpbench — measurement driver behind perfbench/run.py.
//
// Drives the lpomp library from outside, through its public entry points
// only, and prints one JSON document of raw samples on stdout. run.py owns
// the workload definitions and all statistics (medians, percentiles, span
// self time); this program only runs the work, times it, checks it and
// records spans around each call it makes into a layer.
//
//   lpbench sweep  --kernels=CG,MG --klass=S --platforms=opteron,xeon
//                  --threads=1,2,4 --pages=4KB,2MB --paging=native
//                  --workers=1 --timed=auto|live --min-passes=N
//                  --seed=N --seconds=S --trace=0|1 --workdir=DIR
//                  [--golden=FILE] [--spans=FILE]
//   lpbench serve  --min-rounds=N --workdir=DIR --seed=N --seconds=S
//                  --trace=0|1 [--spans=FILE]
//   lpbench daemon --shm=NAME --store=DIR        (spawned by `serve` and
//                                                 by the traced stats probe)
//
// Only Strategy::Auto and Strategy::Live are ever named, so the benchmark
// does not depend on which accelerated strategies the library keeps.
#include <malloc.h>
#include <signal.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "core/runtime.hpp"
#include "exec/disk_store.hpp"
#include "exec/fingerprint.hpp"
#include "exec/json.hpp"
#include "exec/record.hpp"
#include "exec/result_cache.hpp"
#include "exec/scheduler.hpp"
#include "exec/strategy.hpp"
#include "exec/sweep.hpp"
#include "npb/npb.hpp"
#include "paging/policy.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/processor_spec.hpp"
#include "sim/trace_sink.hpp"
#include "tlb/tlb.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"

extern char** environ;

namespace {

using namespace lpomp;
using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// --- command line ----------------------------------------------------------

struct Args {
  std::string mode;
  std::map<std::string, std::string> kv;

  std::string get(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  std::string need(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error("missing --" + k + "=");
    return it->second;
  }
  long long num(const std::string& k) const {
    const std::string v = need(k);
    std::size_t end = 0;
    const long long n = std::stoll(v, &end);
    if (end != v.size()) throw std::runtime_error("bad number --" + k);
    return n;
  }
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: lpbench sweep|serve|daemon");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string s = argv[i];
    const auto eq = s.find('=');
    if (s.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::runtime_error("expected --key=value, got " + s);
    }
    a.kv[s.substr(2, eq - 2)] = s.substr(eq + 1);
  }
  return a;
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream in(s);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

npb::Kernel kernel_named(const std::string& name) {
  for (npb::Kernel k : npb::all_kernels()) {
    if (name == npb::kernel_name(k)) return k;
  }
  throw std::runtime_error("unknown kernel " + name);
}

npb::Klass klass_named(const std::string& name) {
  for (npb::Klass k : {npb::Klass::S, npb::Klass::W, npb::Klass::A,
                       npb::Klass::B, npb::Klass::R}) {
    if (name == npb::klass_name(k)) return k;
  }
  throw std::runtime_error("unknown class " + name);
}

PageKind page_named(const std::string& name) {
  if (name == "4KB") return PageKind::small4k;
  if (name == "2MB") return PageKind::large2m;
  throw std::runtime_error("unknown page kind " + name);
}

exec::Strategy strategy_named(const std::string& name) {
  if (name == "auto") return exec::Strategy::Auto;
  if (name == "live") return exec::Strategy::Live;
  throw std::runtime_error("strategy must be auto or live, got " + name);
}

// --- raw output ------------------------------------------------------------

/// Everything one invocation measured: named sample lists (run.py takes
/// medians/percentiles), named scalars, and the correctness tally.
struct Report {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::vector<std::string> errors;
  std::vector<std::string> notes;
  long long attempted = 0;
  long long failed = 0;

  void fail(const std::string& why, long long n = 1) {
    failed += n;
    if (errors.size() < 20) errors.push_back(why);
  }

  std::string json() const {
    exec::JsonWriter w;
    w.begin_object();
    w.field("attempted", static_cast<std::uint64_t>(attempted));
    w.field("failed", static_cast<std::uint64_t>(failed));
    w.key("samples").begin_object();
    for (const auto& [k, v] : samples) {
      w.key(k).begin_array();
      for (double x : v) w.value(x);
      w.end_array();
    }
    w.end_object();
    w.key("values").begin_object();
    for (const auto& [k, v] : values) w.field(k, v);
    w.end_object();
    w.key("errors").begin_array();
    for (const std::string& e : errors) w.value(e);
    w.end_array();
    w.key("notes").begin_array();
    for (const std::string& n : notes) w.value(n);
    w.end_array();
    w.end_object();
    return w.str();
  }
};

// --- spans -----------------------------------------------------------------

/// In-memory span log, written out once at exit. Off in untraced runs, so
/// the end-to-end numbers never pay for it.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    int parent = -1;
    long long group = -1;  ///< shared by every span of one serve request
  };

  bool on = false;

  int open(const std::string& name, int parent = -1, long long group = -1) {
    if (!on) return -1;
    spans_.push_back({name, now_s(), 0.0, parent, group});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = now_s();
  }
  std::size_t size() const { return spans_.size(); }
  /// Drops every span recorded after the first `n`.
  void truncate(std::size_t n) { spans_.resize(std::min(n, spans_.size())); }

  void write(const std::string& path) const {
    if (path.empty()) return;
    exec::JsonWriter w;
    w.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.field("id", static_cast<std::uint64_t>(i));
      w.field("name", s.name);
      w.field("start", s.start);
      w.field("end", s.end);
      w.field("parent", s.parent);
      w.field("group", static_cast<int>(s.group));
      w.end_object();
    }
    w.end_array();
    std::ofstream(path) << w.str() << "\n";
  }

 private:
  std::vector<Span> spans_;
};

Tracer g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, int parent = -1,
                      long long group = -1)
      : id_(g_tracer.open(name, parent, group)) {}
  ~ScopedSpan() { g_tracer.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

/// Times `fn` and returns seconds; also records a span when tracing.
template <typename Fn>
double timed(const std::string& span, int parent, Fn&& fn) {
  ScopedSpan s(span, parent);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

// --- host noise probe --------------------------------------------------------

/// Fixed host probes, timed before every sample and reported beside the
/// metrics; they never scale any metric. `serial_ms` is a dependent-load
/// chase plus a multiply chain on one thread. `barrier_ms` is 2000 rounds of
/// a barrier across four threads, the hand-off every multi-threaded kernel
/// team makes; on a contended VM it slows with the vCPU wake-up latency
/// that makes 4-thread points slow, so it marks slow host windows far better
/// than the serial probe does.
class Probe {
 public:
  Probe() : next_(kSlots) {
    std::vector<std::uint32_t> order(kSlots);
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
      x = exec::splitmix64(x);
      std::swap(order[i], order[x % i]);
    }
    for (std::size_t i = 0; i < kSlots; ++i) {
      next_[order[i]] = order[(i + 1) % kSlots];
    }
  }

  void run(Report& rep) {
    double t0 = now_s();
    std::uint32_t p = 0;
    for (std::size_t i = 0; i < 100000; ++i) p = next_[p];
    std::uint64_t h = p;
    for (std::uint64_t i = 0; i < 1000000; ++i) {
      h = h * 6364136223846793005ULL + i;
    }
    g_probe_sink = h;
    rep.samples["probe_serial_ms"].push_back((now_s() - t0) * 1e3);

    t0 = now_s();
    std::barrier<> sync(kThreads);
    auto body = [&sync] {
      for (int i = 0; i < 2000; ++i) sync.arrive_and_wait();
    };
    std::vector<std::thread> team;
    for (unsigned i = 1; i < kThreads; ++i) team.emplace_back(body);
    body();
    for (std::thread& t : team) t.join();
    rep.samples["probe_barrier_ms"].push_back((now_s() - t0) * 1e3);
  }

 private:
  static constexpr std::size_t kSlots = std::size_t{1} << 19;  // 2 MiB
  static constexpr unsigned kThreads = 4;  // every workload's host threads
  static inline volatile std::uint64_t g_probe_sink = 0;
  std::vector<std::uint32_t> next_;
};

/// Peak RSS of the process since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Restarts the peak-RSS mark at the current RSS (Linux clear_refs "5"), so
/// each pass gets its own peak instead of the run's running maximum.
void reset_peak_rss() {
  malloc_trim(0);  // hand back what the previous pass freed
  std::ofstream("/proc/self/clear_refs") << "5";
}

// --- the spawned daemon --------------------------------------------------------

/// The daemon process: a SweepService on one worker over `store`.
std::atomic<bool> g_stop{false};
void on_term(int) { g_stop.store(true); }

int run_daemon(const Args& a) {
  // A daemon must never outlive the benchmark that spawned it.
  prctl(PR_SET_PDEATHSIG, SIGTERM);
  std::signal(SIGTERM, on_term);
  std::signal(SIGINT, on_term);
  serve::SweepService::Config cfg;
  cfg.shm_name = a.need("shm");
  cfg.scheduler.workers = 1;
  cfg.scheduler.store_dir = a.need("store");
  serve::SweepService service(cfg);
  service.serve(g_stop);
  return 0;
}

/// A spawned daemon process; stopped (SIGTERM, then SIGKILL) and reaped on
/// destruction so no run leaves one behind.
class Daemon {
 public:
  Daemon(const std::string& shm, const std::string& store) : shm_(shm) {
    // /proc/self/exe names this process's own image even when the file on
    // disk has been replaced by a rebuild since it started.
    std::vector<std::string> argv_s = {"lpbench", "daemon", "--shm=" + shm,
                                       "--store=" + store};
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      throw std::runtime_error("cannot spawn daemon");
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits until the ring answers a stats request; returns the client.
  std::unique_ptr<serve::SweepClient> connect(double timeout_s) {
    const double limit = now_s() + timeout_s;
    for (;;) {
      try {
        auto c = std::make_unique<serve::SweepClient>(shm_);
        c->stats(std::chrono::milliseconds(2000));
        return c;
      } catch (const std::exception&) {
        if (now_s() > limit) throw std::runtime_error("daemon never answered");
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("daemon exited during start");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  /// Stops the daemon; returns its peak RSS in MiB (0 if unknown).
  double stop() {
    if (pid_ <= 0) return 0;
    kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    const double limit = now_s() + 10;
    pid_t got = 0;
    while ((got = wait4(pid_, &status, WNOHANG, &ru)) == 0 && now_s() < limit) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (got == 0) {
      kill(pid_, SIGKILL);
      wait4(pid_, &status, 0, &ru);
    }
    pid_ = -1;
    shm_unlink(shm_.c_str());  // no-op after a clean exit
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  std::string shm_;
  pid_t pid_ = -1;
};

/// Ring names of the daemons one lpbench process starts.
std::string next_shm_name() {
  static int incarnation = 0;
  return "/lpbench-" + std::to_string(getpid()) + "-" +
         std::to_string(incarnation++);
}

// --- passes and their checks -------------------------------------------------

exec::Scheduler::Config scheduler_config(unsigned workers) {
  exec::Scheduler::Config c;
  c.workers = workers;
  return c;
}

/// Checks one pass: every point ok and verified, and every record's
/// deterministic JSON equal to the reference pass (the first live pass).
/// Each bad point counts as one failure.
void check_pass(const exec::SweepResult& r,
                const std::vector<std::string>& reference, const char* tag,
                Report& rep) {
  rep.attempted += static_cast<long long>(r.records.size());
  if (r.records.size() != reference.size()) {
    rep.fail(std::string(tag) + ": pass returned " +
                 std::to_string(r.records.size()) + " records, expected " +
                 std::to_string(reference.size()),
             static_cast<long long>(r.records.size()));
    return;
  }
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    const exec::RunRecord& rec = r.records[i];
    if (!rec.ok || !rec.verified) {
      rep.fail(std::string(tag) + ": " + rec.kernel + "/" + rec.platform +
               "/" + std::to_string(rec.threads) + "T/" + rec.page_kind +
               (rec.ok ? " not verified" : " failed: " + rec.error));
    } else if (rec.to_json(false) != reference[i]) {
      rep.fail(std::string(tag) + ": " + rec.kernel + "/" + rec.platform +
               "/" + std::to_string(rec.threads) + "T/" + rec.page_kind +
               "/" + rec.paging + " differs from the live pass");
    }
  }
}

/// Golden check: every native-policy record on a platform the golden file
/// covers must appear in it byte for byte (substring match: the golden
/// holds exactly to_json(false)); each one that does not is a failure.
/// Records under other policies or platforms have no golden entry.
void check_golden(const exec::SweepResult& r, const std::string& path,
                  Report& rep) {
  std::ifstream in(path);
  if (!in) {
    rep.fail("cannot read golden file " + path);
    return;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  std::size_t matched = 0;
  for (const exec::RunRecord& rec : r.records) {
    if (rec.paging != "native" ||
        golden.find("\"platform\":\"" + rec.platform + "\"") == std::string::npos) {
      continue;
    }
    if (golden.find(rec.to_json(false)) == std::string::npos) {
      rep.fail("golden mismatch: " + rec.kernel + "/" + rec.platform + "/" +
               std::to_string(rec.threads) + "T/" + rec.page_kind);
    } else {
      ++matched;
    }
  }
  if (matched == 0) rep.fail("no record of the pass is covered by " + path);
  rep.values["golden_matched"] = static_cast<double>(matched);
}

/// Warm reruns after every cold pass: the same grid again on the same
/// Scheduler, every point served from its result cache — the warm rerun a
/// user of sweep_all sees.
constexpr int kWarmReruns = 15;

/// One measured pass on a fresh Scheduler: a cold run of `spec`, then
/// kWarmReruns warm reruns. Every run is checked against `reference`, which
/// an empty vector takes from this pass's cold run. With `sample` the cold
/// wall (cold_wall_s), the cold run's peak RSS (rss_mb) and the warm walls
/// (warm_wall_ms) become samples.
exec::SweepResult measured_pass(const exec::SweepSpec& spec, unsigned workers,
                                exec::Strategy strategy,
                                std::vector<std::string>& reference,
                                bool sample, Report& rep, double& wall_s) {
  reset_peak_rss();
  exec::Scheduler sched(scheduler_config(workers));
  double t0 = now_s();
  exec::SweepResult r = sched.run(spec, strategy);
  wall_s = now_s() - t0;
  if (sample) {
    rep.samples["cold_wall_s"].push_back(wall_s);
    rep.samples["rss_mb"].push_back(peak_rss_mb());
  }
  if (reference.empty()) {
    for (const auto& rec : r.records) reference.push_back(rec.to_json(false));
  }
  check_pass(r, reference, exec::strategy_name(strategy), rep);
  for (int i = 0; i < kWarmReruns; ++i) {
    t0 = now_s();
    const exec::SweepResult w = sched.run(spec, strategy);
    const double warm_s = now_s() - t0;
    if (sample) rep.samples["warm_wall_ms"].push_back(warm_s * 1e3);
    check_pass(w, reference, "warm rerun", rep);
    rep.values["warm_points"] += static_cast<double>(w.records.size());
    rep.values["warm_hits"] += static_cast<double>(w.cache_hits());
  }
  return r;
}

// --- layer attribution (traced runs) -------------------------------------------

/// What the traced run attributes: the workload's grid in its wire form,
/// its worker count and the strategy its cold passes run under.
struct Layered {
  serve::SweepRequest req;
  exec::SweepSpec spec;  ///< req.to_spec()
  unsigned workers = 1;
  exec::Strategy timed = exec::Strategy::Live;
  std::filesystem::path workdir;  ///< scratch for the store probe and daemon
};

core::RuntimeConfig runtime_config(const exec::RunTask& t, bool with_sim) {
  core::RuntimeConfig cfg;
  cfg.num_threads = t.threads;
  cfg.page_kind = t.page_kind;
  cfg.code_page_kind = t.code_page_kind;
  cfg.paging = t.paging;
  if (with_sim) cfg.sim = core::SimConfig{t.spec, t.cost, t.seed};
  return cfg;
}

std::string stream_key(const exec::RunTask& t) {
  return trace::trace_key(npb::kernel_name(t.kernel), npb::klass_name(t.klass),
                          t.threads, t.page_kind);
}

/// The share of a grid the per-point probes run: its first platform at its
/// smallest thread count, so class W stays affordable and every workload
/// runs the same probes.
exec::SweepSpec probe_grid(const exec::SweepSpec& spec) {
  exec::SweepSpec s = spec;
  s.platforms = {spec.platforms.front()};
  s.threads = {*std::min_element(spec.threads.begin(), spec.threads.end())};
  return s;
}

/// Constructs one simulator-attached Runtime per distinct point config
/// (stream and platform) under a core.runtime_ctor span each.
void time_runtime_setup(const std::vector<exec::RunTask>& tasks, int parent) {
  std::set<std::string> seen;
  for (const exec::RunTask& t : tasks) {
    if (!seen.insert(stream_key(t) + t.spec.name).second) continue;
    core::RuntimeConfig cfg = runtime_config(t, true);
    cfg.shared_pool_bytes = npb::pool_bytes_for(t.kernel, t.klass);
    timed("core.runtime_ctor", parent, [&] { core::Runtime rt(cfg); });
  }
}

/// Captures the first `limit` data accesses of thread 0 — the address
/// stream the per-call TLB/cache/translate probes replay.
class AddressCapture final : public sim::TraceSink {
 public:
  struct Ref {
    vaddr_t addr;
    PageKind kind;
    bool store;
  };
  explicit AddressCapture(std::size_t limit) : limit_(limit) {}
  std::vector<Ref> refs;

  void on_touch(unsigned tid, vaddr_t addr, PageKind kind,
                Access access) override {
    add(tid, addr, kind, access);
  }
  void on_touch_run(unsigned tid, vaddr_t addr, std::size_t n, PageKind kind,
                    Access access) override {
    for (std::size_t i = 0; i < n; ++i) add(tid, addr + 8 * i, kind, access);
  }
  void on_touch_strided(unsigned tid, vaddr_t addr, std::size_t n,
                        std::int64_t stride, PageKind kind,
                        Access access) override {
    for (std::size_t i = 0; i < n; ++i) {
      add(tid, addr + static_cast<vaddr_t>(stride * static_cast<std::int64_t>(i)),
          kind, access);
    }
  }
  void on_compute(unsigned, cycles_t) override {}
  void on_boundary(sim::BoundaryKind) override {}

 private:
  void add(unsigned tid, vaddr_t addr, PageKind kind, Access access) {
    if (tid != 0 || refs.size() >= limit_) return;
    refs.push_back({addr, kind, access == Access::store});
  }
  std::size_t limit_;
};

/// Keeps the probe loops' results observable so they are not optimised out.
volatile std::uint64_t g_sink = 0;

double median_of(std::vector<double> xs) {
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  return xs[xs.size() / 2];
}

/// Per-call TLB lookup, L1D access and page-table translate cost, driven by
/// an address stream recorded from the workload's own kernels. Each probe
/// is the median of five passes over the stream.
void probe_components(const exec::SweepSpec& spec, Report& rep, int parent) {
  ScopedSpan group("bench.components", parent);
  std::set<std::string> seen;
  double tlb_ns = 0, cache_ns = 0, xlate_ns = 0;
  std::size_t n_streams = 0;
  long long faults = 0;
  for (const exec::RunTask& t : probe_grid(spec).expand()) {
    const std::string key = npb::kernel_name(t.kernel) + std::string("/") +
                            page_kind_name(t.page_kind);
    if (!seen.insert(key).second) continue;
    AddressCapture cap(std::size_t{1} << 18);
    core::RuntimeConfig cfg = runtime_config(t, true);
    cfg.trace_sink = &cap;
    {
      ScopedSpan s("bench.capture_stream", group.id());
      npb::run_kernel(t.kernel, t.klass, cfg);
    }
    if (cap.refs.empty()) continue;
    const double n = static_cast<double>(cap.refs.size());
    std::vector<double> tl, ca, xl;
    std::uint64_t sink = 0;
    core::RuntimeConfig rcfg = runtime_config(t, false);
    rcfg.shared_pool_bytes = npb::pool_bytes_for(t.kernel, t.klass);
    core::Runtime rt(rcfg);
    for (int rep_i = 0; rep_i < 5; ++rep_i) {
      tlb::Tlb tlb(t.spec.l1_dtlb);
      tl.push_back(timed("tlb.lookup", group.id(), [&] {
        for (const auto& r : cap.refs) {
          const vpn_t vpn = r.addr >> page_shift(r.kind);
          if (!tlb.lookup(vpn, r.kind)) tlb.insert(vpn, r.kind);
        }
      }) / n * 1e9);
      cache::Cache l1("L1D", t.spec.l1d);
      ca.push_back(timed("cache.access", group.id(), [&] {
        for (const auto& r : cap.refs) sink += l1.access(r.addr, r.store);
      }) / n * 1e9);
      long long miss = 0;
      xl.push_back(timed("mem.translate", group.id(), [&] {
        for (const auto& r : cap.refs) {
          const mem::WalkResult w = rt.space().translate(r.addr);
          sink += w.paddr;
          miss += w.present ? 0 : 1;
        }
      }) / n * 1e9);
      faults = std::max(faults, miss);
    }
    g_sink = sink;
    tlb_ns += median_of(tl);
    cache_ns += median_of(ca);
    xlate_ns += median_of(xl);
    ++n_streams;
  }
  if (n_streams == 0) return;
  rep.values["tlb.lookup_ns"] = tlb_ns / static_cast<double>(n_streams);
  rep.values["cache.access_ns"] = cache_ns / static_cast<double>(n_streams);
  rep.values["mem.translate_ns"] = xlate_ns / static_cast<double>(n_streams);
  if (faults != 0) {
    rep.fail("translate probe: " + std::to_string(faults) +
             " recorded addresses unmapped in a fresh Runtime");
  }
}

/// A live run of one point, timed under `span`.
npb::NpbResult live_point(const exec::RunTask& t, const char* span, int parent,
                          double& wall_s) {
  npb::NpbResult res;
  wall_s = timed(span, parent, [&] {
    res = npb::run_kernel(t.kernel, t.klass, runtime_config(t, true));
  });
  return res;
}

/// Paging overlay: the probe grid's first page kind under every paging
/// policy, live; (non-native wall − native wall of the same point) per
/// non-native access.
void probe_paging(const exec::SweepSpec& spec, Report& rep, int parent) {
  exec::SweepSpec s = probe_grid(spec);
  s.page_kinds = {spec.page_kinds.front()};
  s.paging_policies.clear();
  for (paging::Policy p : {paging::Policy::native, paging::Policy::base4k,
                           paging::Policy::hugetlb2m, paging::Policy::huge1g,
                           paging::Policy::thp}) {
    paging::PolicySpec ps;
    ps.policy = p;
    s.paging_policies.push_back(ps);
  }
  double native_s = 0, extra_s = 0, extra_acc = 0;
  for (const exec::RunTask& t : s.expand()) {
    ++rep.attempted;
    double wall = 0;
    const npb::NpbResult r = live_point(t, "paging.overlay_run", parent, wall);
    if (!r.verified) rep.fail("overlay probe: " + t.label() + " not verified");
    if (t.paging.policy == paging::Policy::native) {
      native_s = wall;  // grid order puts a point's native run first
    } else {
      extra_s += wall - native_s;
      extra_acc += static_cast<double>(
          r.profile.count(prof::ProfileReport::kAccesses));
    }
  }
  rep.values["paging.overlay_ns_per_access"] = extra_s * 1e9 / extra_acc;
}

/// Trace layer: records each stream of the probe grid (against the same run
/// untraced), then replays every probe point from its stream and checks
/// the replay's counters against the live run.
void probe_trace(const exec::SweepSpec& spec, Report& rep, int parent) {
  std::map<std::string, trace::Trace> traces;
  std::map<std::string, npb::NpbResult> live;
  double bytes = 0, rec_accesses = 0, live_s = 0, replay_s = 0, record_over_s = 0;
  const std::vector<exec::RunTask> tasks = probe_grid(spec).expand();
  for (const exec::RunTask& t : tasks) {
    double wall = 0;
    live[t.label()] = live_point(t, "trace.live_reference", parent, wall);
    live_s += wall;
    const std::string key = stream_key(t);
    if (traces.count(key)) continue;
    trace::TraceRecorder recorder(t.threads);
    npb::NpbResult res;
    const double rec_s = timed("trace.record", parent, [&] {
      core::RuntimeConfig cfg = runtime_config(t, true);
      cfg.trace_sink = &recorder;
      res = npb::run_kernel(t.kernel, t.klass, cfg);
    });
    record_over_s += rec_s - wall;  // against the same run untraced
    trace::TraceMeta meta;
    meta.kernel = npb::kernel_name(t.kernel);
    meta.klass = npb::klass_name(t.klass);
    meta.threads = t.threads;
    meta.page_kind = t.page_kind;
    meta.platform = t.spec.name;
    meta.code_page_kind = t.code_page_kind;
    meta.seed = t.seed;
    meta.verified = res.verified;
    meta.checksum = res.checksum;
    trace::Trace tr = recorder.finish(meta);
    bytes += static_cast<double>(tr.bytes());
    rec_accesses += static_cast<double>(tr.meta.accesses);
    traces.emplace(key, std::move(tr));
  }
  for (const exec::RunTask& t : tasks) {
    trace::ReplayConfig rc;
    rc.spec = t.spec;
    rc.cost = t.cost;
    rc.seed = t.seed;
    rc.code_page_kind = t.code_page_kind;
    rc.paging = t.paging;
    trace::ReplayOutcome out;
    replay_s += timed("trace.replay", parent, [&] {
      out = trace::ReplayDriver(rc).run(traces.at(stream_key(t)));
    });
    ++rep.attempted;
    const prof::ProfileReport& want = live.at(t.label()).profile;
    for (const char* counter :
         {prof::ProfileReport::kCycles, prof::ProfileReport::kAccesses}) {
      if (out.profile.count(counter) != want.count(counter)) {
        rep.fail("replay of " + t.label() + " differs from its live run");
        break;
      }
    }
  }
  rep.values["trace.record_overhead_s"] = record_over_s;
  rep.values["trace.bytes_per_access"] = bytes / rec_accesses;
  rep.values["trace.replay_s"] = replay_s;
  rep.values["trace.replay_over_live"] = replay_s / live_s;
}

bool is_follower(const exec::RunRecord& r) {
  return r.trace_source == "replay" || r.trace_source == "analytic" ||
         r.trace_source == "lane";
}

/// Scheduler-level attribution of one pass (exec.* metrics) and the trace
/// provenance of its points.
void pass_attribution(const exec::SweepResult& r, double wall_s,
                      unsigned workers, const std::string& prefix,
                      Report& rep) {
  double task_s = 0;
  for (const auto& rec : r.records) task_s += rec.wall_ms / 1e3;
  rep.values[prefix + "task_wall_s"] = task_s;
  rep.values[prefix + "unattributed_s"] = workers * wall_s - task_s;
  rep.values[prefix + "worker_busy_frac"] = task_s / (workers * wall_s);
}

/// exec result-cache and store, and serve wire and ring costs, on the
/// workload's own grid and records: the layers a warm request touches.
void probe_exec_serve(const Layered& L, const exec::SweepResult& live,
                      Report& rep, int root) {
  const std::vector<exec::RunRecord>& recs = live.records;
  // Keys of the grid under successive base seeds, so every workload probes
  // at least kKeys distinct entries.
  constexpr std::size_t kKeys = 256;
  std::vector<std::string> keys;
  for (std::uint64_t j = 0; keys.size() < kKeys; ++j) {
    exec::SweepSpec s = L.spec;
    s.base_seed += j;
    for (const exec::RunTask& t : s.expand()) keys.push_back(exec::cache_key(t));
  }
  const std::string want = serve::encode_request(L.req);

  // Wire: request encode + decode + response encode.
  for (int i = 0; i < 200; ++i) {
    rep.samples["wire_us"].push_back(timed("serve.wire", root, [&] {
      const std::string text = serve::encode_request(L.req);
      if (serve::encode_request(serve::decode_request(text)) != want) {
        rep.fail("wire round trip changed the request");
      }
      if (serve::encode_response(live).empty()) rep.fail("empty response");
    }) * 1e6);
  }
  // LRU lookups (all hits) and record JSON round trips.
  exec::ResultCache cache(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cache.insert(keys[i], recs[i % recs.size()]);
  }
  for (int rep_i = 0; rep_i < 5; ++rep_i) {
    std::size_t hits = 0;
    const double t = timed("exec.lru_lookup", root, [&] {
      for (int k = 0; k < 20; ++k) {
        for (const auto& key : keys) hits += cache.lookup(key).has_value() ? 1 : 0;
      }
    });
    if (hits != 20 * keys.size()) rep.fail("LRU lost an entry");
    rep.samples["lru_lookup_us"].push_back(
        t / static_cast<double>(20 * keys.size()) * 1e6);
    const double j = timed("exec.record_json", root, [&] {
      for (std::size_t k = 0; k < kKeys; ++k) {
        const exec::RunRecord& rec = recs[k % recs.size()];
        if (!exec::RunRecord::from_json(rec.to_json(true)).same_result(rec)) {
          rep.fail("record JSON round trip changed a record");
        }
      }
    });
    rep.samples["record_json_us"].push_back(j / kKeys * 1e6);
  }
  // Disk store: insert, look up, then reopen the populated store.
  const std::filesystem::path dir = L.workdir / "store-probe";
  std::filesystem::remove_all(dir);
  {
    exec::DiskResultStore ds(dir.string());
    const double ins = timed("exec.store_insert", root, [&] {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        ds.insert(keys[i], recs[i % recs.size()]);
      }
    });
    std::size_t hits = 0;
    const double look = timed("exec.store_lookup", root, [&] {
      for (const auto& key : keys) hits += ds.lookup(key).has_value() ? 1 : 0;
    });
    if (hits != keys.size()) rep.fail("disk store lost an entry");
    rep.values["exec.store_insert_us"] = ins / static_cast<double>(keys.size()) * 1e6;
    rep.values["exec.store_lookup_us"] = look / static_cast<double>(keys.size()) * 1e6;
  }
  for (int i = 0; i < 5; ++i) {
    rep.samples["store_open_ms"].push_back(timed("exec.store_open", root, [&] {
      exec::DiskResultStore reopened(dir.string());
      if (reopened.size() != keys.size()) rep.fail("store reopened short");
    }) * 1e3);
  }
  // Ring plus poll loop alone: stats round trips to a daemon run no sweep.
  Daemon daemon(next_shm_name(), (L.workdir / "stats-store").string());
  auto client = daemon.connect(30);
  for (int i = 0; i < 300; ++i) {
    std::string s;
    rep.samples["stats_rtt_us"].push_back(
        timed("serve.stats", root, [&] { s = client->stats(); }) * 1e6);
    const auto at = s.find("\"queue_depth_peak\":");
    if (at == std::string::npos) {
      rep.fail("stats reply without queue_depth_peak");
    } else {
      rep.values["serve.queue_depth_peak"] = std::stod(s.substr(at + 19));
    }
  }
  client.reset();
  daemon.stop();
}

/// Layer attribution of a workload's grid. `live` is the reference live
/// pass (run before, untraced): simulator counts and the live scheduler
/// attribution come from it. A workload whose cold passes run `auto` also
/// runs one `auto` pass here for the scheduler attribution and trace
/// provenance; on a live workload those are the live pass's.
void attribute_layers(const Layered& L, const std::vector<std::string>& reference,
                      const exec::SweepResult& live, double live_pass_s,
                      Report& rep) {
  const std::vector<exec::RunTask> tasks = L.spec.expand();
  const int root = g_tracer.open("bench.layers");

  pass_attribution(live, live_pass_s, L.workers, "exec.live_", rep);
  exec::SweepResult timed_pass = live;
  double timed_wall = live_pass_s;
  if (L.timed != exec::Strategy::Live) {
    ScopedSpan pass("bench.pass.auto", root);
    exec::Scheduler sched(scheduler_config(L.workers));
    timed_wall = timed("exec.run.auto", pass.id(),
                       [&] { timed_pass = sched.run(L.spec, L.timed); });
    check_pass(timed_pass, reference, "auto", rep);
  }
  pass_attribution(timed_pass, timed_wall, L.workers, "exec.", rep);
  double leader = 0, follower = 0, followers = 0, fallbacks = 0;
  for (const auto& rec : timed_pass.records) {
    (is_follower(rec) ? follower : leader) += rec.wall_ms / 1e3;
    followers += is_follower(rec) ? 1 : 0;
    fallbacks += rec.trace_source == "fallback" ? 1 : 0;
  }
  rep.values["leader_wall_s"] = leader;
  rep.values["follower_wall_s"] = follower;
  rep.values["trace.offload_frac"] =
      followers / static_cast<double>(timed_pass.records.size());
  rep.values["trace.fallbacks"] = fallbacks;

  // Exact simulator counts of the live pass (identical across speed-only
  // changes).
  double live_task_s = 0, accesses = 0, walks = 0, levels = 0, l2 = 0, pwc = 0;
  for (const auto& rec : live.records) {
    live_task_s += rec.wall_ms / 1e3;
    accesses += static_cast<double>(rec.accesses);
    walks += static_cast<double>(rec.dtlb_walks_4k + rec.dtlb_walks_2m +
                                 rec.dtlb_walks_1g);
    levels += static_cast<double>(rec.walk_levels);
    l2 += static_cast<double>(rec.l2_misses);
    pwc += static_cast<double>(rec.pwc_hits);
  }
  rep.values["sim.accesses"] = accesses;
  rep.values["sim.dtlb_walks"] = walks;
  rep.values["sim.walk_levels"] = levels;
  rep.values["sim.l2_misses"] = l2;
  rep.values["sim.pwc_hits"] = pwc;

  // Numerics alone (no simulator attached), once per address stream.
  std::map<std::string, double> numerics_s;
  for (const exec::RunTask& t : tasks) {
    const std::string key = stream_key(t);
    if (numerics_s.count(key)) continue;
    numerics_s[key] = timed("npb.numerics", root, [&] {
      const npb::NpbResult r =
          npb::run_kernel(t.kernel, t.klass, runtime_config(t, false));
      if (!r.verified) rep.fail("numerics-only run not verified: " + key);
    });
  }
  double numerics_points = 0;
  for (const exec::RunTask& t : tasks) numerics_points += numerics_s[stream_key(t)];
  rep.values["sim.accounting_s"] = live_task_s - numerics_points;
  rep.values["sim.ns_per_access"] = (live_task_s - numerics_points) / accesses * 1e9;
  rep.values["sim.maccess_per_s"] = accesses / live_task_s / 1e6;

  time_runtime_setup(tasks, root);
  probe_components(L.spec, rep, root);
  probe_paging(L.spec, rep, root);
  probe_trace(L.spec, rep, root);
  probe_exec_serve(L, live, rep, root);
  g_tracer.close(root);
}

/// The traced run's attribution: once untimed (it takes the process's
/// first-use costs, which would otherwise land on one side), then in pairs
/// with the tracer off and on until kOverheadSeconds have passed; the
/// median walls of each side give bench.tracing_overhead. Only the last
/// traced call's spans are kept.
constexpr double kOverheadSeconds = 6;

void traced_attribution(const Layered& L, const std::vector<std::string>& reference,
                        const exec::SweepResult& live, double live_pass_s,
                        Report& rep) {
  attribute_layers(L, reference, live, live_pass_s, rep);
  const std::size_t mark = g_tracer.size();
  const double until = now_s() + kOverheadSeconds;
  do {
    for (bool traced : {false, true}) {
      g_tracer.truncate(mark);
      g_tracer.on = traced;
      const double t0 = now_s();
      attribute_layers(L, reference, live, live_pass_s, rep);
      rep.samples[traced ? "traced_wall_s" : "untraced_wall_s"].push_back(
          now_s() - t0);
    }
  } while (now_s() < until);
  g_tracer.on = false;
}

// --- sweep workloads -----------------------------------------------------------

struct SweepArgs {
  Layered grid;
  double seconds = 10;
  bool trace = false;
  std::string golden;
};

SweepArgs sweep_args(const Args& a) {
  SweepArgs s;
  serve::SweepRequest& r = s.grid.req;
  r.kernels.clear();
  for (const auto& k : split(a.need("kernels"))) r.kernels.push_back(kernel_named(k));
  r.klass = klass_named(a.need("klass"));
  r.platforms = split(a.need("platforms"));
  r.threads.clear();
  for (const auto& t : split(a.need("threads"))) {
    r.threads.push_back(static_cast<unsigned>(std::stoul(t)));
  }
  r.page_kinds.clear();
  for (const auto& p : split(a.need("pages"))) r.page_kinds.push_back(page_named(p));
  r.paging = split(a.get("paging", "native"));
  r.base_seed = static_cast<std::uint64_t>(a.num("seed"));
  s.grid.timed = strategy_named(a.need("timed"));
  r.strategy = s.grid.timed;
  s.grid.spec = r.to_spec();
  s.grid.workers = static_cast<unsigned>(a.num("workers"));
  s.grid.workdir = a.need("workdir");
  s.seconds = static_cast<double>(a.num("seconds"));
  s.trace = a.num("trace") != 0;
  s.golden = a.get("golden");
  return s;
}

/// Set-up of a fresh engine: Scheduler plus pool construction and its
/// first point — the grid's first point at class S and its smallest thread
/// count, live, so the point stays a few milliseconds on every workload.
/// The construction alone takes ≈ 20 µs, mostly the host starting a
/// thread, and its median moved by 60 % between sets of runs of the same
/// code; with one point served a sample is milliseconds of the engine's own
/// work, and work moved into construction still shows. Repeated; the
/// median is setup_s.
void measure_setup(const Layered& g, int reps, Report& rep) {
  exec::SweepSpec one = g.spec;
  one.klass = npb::Klass::S;
  one.kernels = {one.kernels.front()};
  one.platforms = {one.platforms.front()};
  one.threads = {one.threads.front()};
  one.page_kinds = {one.page_kinds.front()};
  one.paging_policies = {one.paging_policies.front()};
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    exec::Scheduler sched(scheduler_config(g.workers));
    const exec::SweepResult r = sched.run(one, exec::Strategy::Live);
    rep.samples["setup_s"].push_back(now_s() - t0);
    rep.attempted += static_cast<long long>(r.records.size());
    for (const exec::RunRecord& rec : r.records) {
      if (!rec.ok || !rec.verified) rep.fail("set-up point failed: " + rec.kernel);
    }
  }
}

int run_sweep(const Args& a) {
  const SweepArgs sa = sweep_args(a);
  const Layered& g = sa.grid;
  const int min_passes = static_cast<int>(a.num("min-passes"));
  Report rep;
  Probe probe;
  const double start = now_s();
  if (g.timed == exec::Strategy::Live) {
    rep.notes.push_back(
        "auto is not run on this workload: one cold auto pass costs minutes");
  }
  std::filesystem::create_directories(g.workdir);

  {
    // Untimed warm-up, one point per kernel at the largest thread count:
    // without it the first timed pass pays the process's first-touch costs.
    exec::SweepSpec w = g.spec;
    w.platforms = {w.platforms.front()};
    w.threads = {w.threads.back()};
    w.page_kinds = {w.page_kinds.front()};
    w.paging_policies = {w.paging_policies.front()};
    exec::Scheduler(scheduler_config(g.workers)).run(w, exec::Strategy::Live);
  }

  // One measured pass: probe, set-up samples, then the pass. Taking set-up
  // samples before every pass spreads them over the run instead of one
  // instant.
  std::vector<std::string> reference;
  auto pass = [&](exec::Strategy st, double& wall) {
    probe.run(rep);
    measure_setup(g, 3, rep);
    return measured_pass(g.spec, g.workers, st, reference,
                         !sa.trace && st == g.timed, rep, wall);
  };

  // Reference pass: live, whose records every other pass must match. On a
  // workload that times live passes it is also the first sample.
  double live_wall = 0;
  const exec::SweepResult first_live = pass(exec::Strategy::Live, live_wall);
  if (!sa.golden.empty()) check_golden(first_live, sa.golden, rep);

  if (!sa.trace) {
    if (g.timed != exec::Strategy::Live) {
      rep.notes.push_back("reference live pass: " + std::to_string(live_wall) +
                          " s (one sample, not a metric)");
    }
    // Cold passes of the timed strategy until the budget is spent and there
    // are min_passes of them; each metric is the median of its samples.
    const double deadline = start + sa.seconds;
    while (now_s() < deadline ||
           rep.samples["cold_wall_s"].size() < static_cast<std::size_t>(min_passes)) {
      double wall = 0;
      pass(g.timed, wall);
    }
  } else {
    traced_attribution(g, reference, first_live, live_wall, rep);
  }
  std::filesystem::remove_all(g.workdir);
  g_tracer.write(a.get("spans"));
  std::cout << rep.json() << "\n";
  return 0;
}

// --- serve workload ------------------------------------------------------------

/// Extracts the "deterministic" member of an ok response (always last).
std::string deterministic_part(const std::string& response) {
  const std::string tag = "\"deterministic\":";
  const auto at = response.rfind(tag);
  if (at == std::string::npos || response.empty()) return {};
  return response.substr(at + tag.size(),
                         response.size() - 1 - at - tag.size());
}

std::size_t count_of(const std::string& hay, const std::string& needle,
                     std::size_t end = std::string::npos) {
  std::size_t n = 0;
  for (auto p = hay.find(needle); p != std::string::npos && p < end;
       p = hay.find(needle, p + needle.size())) {
    ++n;
  }
  return n;
}

/// Warm repeats per cold request (a 1:44 cold:warm mix): a run's 30 rounds
/// give ≈ 1300 warm samples, enough for a p99 with ten samples beyond it.
constexpr int kWarmPerRound = 44;

struct ServeState {
  std::uint64_t rng = 0;
  // Issued cold requests and the deterministic section of their first
  // response, which every repeat must match.
  std::vector<serve::SweepRequest> issued;
  std::vector<std::string> expected;
  std::size_t pre_restart = 0;        ///< requests issued before the restart
  std::size_t next_store_repeat = 0;  ///< next of those to re-ask
};

std::uint64_t next_rand(ServeState& st) {
  st.rng = exec::splitmix64(st.rng);
  return st.rng;
}

/// A cold request: a class-S PC grid under a fresh base seed. PC has the
/// cheapest cold request, so the cold samples fit in one run, and a single
/// kernel keeps cold latency one population.
serve::SweepRequest make_cold(ServeState& st) {
  serve::SweepRequest r;
  r.kernels = {npb::Kernel::PC};
  r.klass = npb::Klass::S;
  r.platforms = {"opteron", "xeon"};
  r.threads = {1, 2};
  r.page_kinds = {PageKind::small4k, PageKind::large2m};
  r.base_seed = next_rand(st) >> 16;
  r.strategy = exec::Strategy::Auto;
  return r;
}

/// One request round trip with its checks. `index` < 0 → a fresh cold
/// request; otherwise a repeat of issued[index].
void serve_one(serve::SweepClient& client, ServeState& st, long long index,
               Report& rep, long long group) {
  ScopedSpan root("serve.request", -1, group);
  serve::SweepRequest req;
  if (index < 0) {
    req = make_cold(st);
  } else {
    req = st.issued[static_cast<std::size_t>(index)];
  }
  ++rep.attempted;
  std::string resp;
  double rtt = 0;
  try {
    ScopedSpan s("serve.submit", root.id(), group);
    const double t0 = now_s();
    resp = client.submit(req);
    rtt = now_s() - t0;
  } catch (const std::exception& e) {
    rep.fail(std::string("request failed: ") + e.what());
    return;
  }
  ScopedSpan check("bench.check", root.id(), group);
  const std::size_t points = req.to_spec().expand().size();
  const std::string det = deterministic_part(resp);
  if (count_of(det, "\"ok\":true") != points ||
      count_of(det, "\"verified\":true") != points) {
    rep.fail("response with failed or unverified points");
    return;
  }
  if (index < 0) {
    st.issued.push_back(req);
    st.expected.push_back(det);
    rep.samples["cold_wall_s"].push_back(rtt);
    return;
  }
  if (det != st.expected[static_cast<std::size_t>(index)]) {
    rep.fail("repeat differs from the first response");
    return;
  }
  rep.samples["warm_wall_ms"].push_back(rtt * 1e3);
  const std::size_t det_at = resp.rfind("\"deterministic\":");
  const std::size_t hits = count_of(resp, "\"cache_hit\":true", det_at) +
                           count_of(resp, "\"store_hit\":true", det_at);
  rep.values["warm_points"] += static_cast<double>(points);
  rep.values["warm_hits"] += static_cast<double>(hits);
}

/// A round: one cold request then `warm` repeats. After a restart the
/// first repeat of each round re-asks a pre-restart request (served from
/// the disk store), the rest repeat random earlier requests (LRU).
void serve_round(serve::SweepClient& client, ServeState& st, int warm,
                 bool after_restart, Report& rep, long long& group) {
  serve_one(client, st, -1, rep, group++);
  for (int i = 0; i < warm; ++i) {
    std::size_t idx = 0;
    if (after_restart && i == 0 && st.next_store_repeat < st.pre_restart) {
      idx = st.next_store_repeat++;
    } else {
      idx = next_rand(st) % st.issued.size();
    }
    serve_one(client, st, static_cast<long long>(idx), rep, group++);
  }
}

int run_serve(const Args& a) {
  Report rep;
  Probe probe;
  const double seconds = static_cast<double>(a.num("seconds"));
  const bool traced = a.num("trace") != 0;
  const std::filesystem::path work = a.need("workdir");
  const std::filesystem::path store = work / "store";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  ServeState st;
  st.rng = static_cast<std::uint64_t>(a.num("seed"));
  const int min_rounds = static_cast<int>(a.num("min-rounds"));
  double peak_rss = 0;
  long long group = 0;
  const double start = now_s();
  // A traced run records spans of its requests (one group id each) and
  // serves only the minimum rounds; its time goes to the attribution.
  g_tracer.on = traced;
  const double phase_s = traced ? 0 : seconds / 2;

  // Timed start of a daemon on the populated store, from spawn until its
  // ring answers.
  auto start_daemon = [&] {
    const double t0 = now_s();
    auto d = std::make_unique<Daemon>(next_shm_name(), store.string());
    auto c = d->connect(30);
    rep.samples["setup_s"].push_back(now_s() - t0);
    return std::make_pair(std::move(d), std::move(c));
  };

  // Rounds until `until` and at least `min` of them. After a restart, a
  // second daemon is started on the same store and stopped again before
  // every round, so set-up samples (≈ 5 ms each) spread over the phase
  // without emptying the serving daemon's LRU.
  auto phase = [&](serve::SweepClient& client, bool after_restart,
                   double until, int min) {
    for (int n = 0; n < min || now_s() < until; ++n) {
      if (after_restart) start_daemon().first->stop();
      probe.run(rep);
      const double t0 = now_s();
      serve_round(client, st, kWarmPerRound, after_restart, rep, group);
      rep.samples["round_s"].push_back(now_s() - t0);
      rep.values["loop_requests"] += kWarmPerRound + 1;
    }
  };

  {
    auto daemon = std::make_unique<Daemon>(next_shm_name(), store.string());
    auto client = daemon->connect(30);
    // Phase 1: first daemon on an empty store.
    phase(*client, false, start + phase_s, min_rounds / 2);
    st.pre_restart = st.issued.size();
    // The restart: the serving daemon stops and a new one opens the store.
    client.reset();
    peak_rss = std::max(peak_rss, daemon->stop());
    daemon.reset();
    std::tie(daemon, client) = start_daemon();
    // Phase 2: restarted daemon; repeats of phase-1 requests come from disk.
    phase(*client, true, start + 2 * phase_s, min_rounds - min_rounds / 2);
    client.reset();
    peak_rss = std::max(peak_rss, daemon->stop());
  }
  g_tracer.on = false;
  rep.samples["rss_mb"].push_back(peak_rss);

  if (traced) {
    // The layers under one request: the first cold request's grid, run in
    // process on one worker like the daemon's, against a live reference.
    Layered L;
    L.req = st.issued.front();
    L.spec = L.req.to_spec();
    L.workers = 1;
    L.timed = L.req.strategy;
    L.workdir = work / "layers";
    std::filesystem::create_directories(L.workdir);
    exec::SweepResult live;
    double live_wall = 0;
    {
      exec::Scheduler sched(scheduler_config(L.workers));
      const double t0 = now_s();
      live = sched.run(L.spec, exec::Strategy::Live);
      live_wall = now_s() - t0;
    }
    std::vector<std::string> reference;
    for (const auto& rec : live.records) reference.push_back(rec.to_json(false));
    check_pass(live, reference, "live", rep);
    traced_attribution(L, reference, live, live_wall, rep);
  }
  std::filesystem::remove_all(work);
  g_tracer.write(a.get("spans"));
  std::cout << rep.json() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Hold glibc's mmap threshold at its 128 KiB default. Left dynamic, it
  // rises after the first large free, so later large buffers are recycled
  // from the heap and a pass's peak RSS depends on what ran before it in
  // the process (36-58 MB for the same class-W live pass; 24 MB held fixed).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "sweep") return run_sweep(a);
    if (a.mode == "serve") return run_serve(a);
    if (a.mode == "daemon") return run_daemon(a);
    throw std::runtime_error("unknown mode " + a.mode);
  } catch (const std::exception& e) {
    std::cerr << "lpbench: " << e.what() << "\n";
    return 1;
  }
}

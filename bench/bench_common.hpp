// Shared plumbing for the paper-reproduction bench harnesses: platform
// selection, runtime-config construction, and result formatting. Every
// harness runs with sensible defaults (`for b in build/bench/*; do $b; done`
// regenerates every table/figure) and honours --klass= / --kernels= /
// LPOMP_* environment overrides.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exec/scheduler.hpp"
#include "npb/npb.hpp"
#include "paging/policy.hpp"
#include "support/format.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"

namespace lpomp::bench {

inline sim::ProcessorSpec platform_by_name(const std::string& name) {
  if (name == "xeon") return sim::ProcessorSpec::xeon_ht();
  if (name == "modern") return sim::ProcessorSpec::modern();
  return sim::ProcessorSpec::opteron270();
}

/// Parses --paging= as a comma-separated paging-policy list ("native,
/// hugetlb2m,huge1g,thp"). Unknown tokens abort with the valid set; an
/// absent flag yields the single native (identity) policy, preserving
/// historical behaviour. --thp-seed/--thp-frag/--thp-growth/--thp-interval
/// override the THP fragmentation model for every thp entry in the list
/// (all four are part of the result fingerprint).
inline std::vector<paging::PolicySpec> paging_from(const Options& opts) {
  const std::string list = opts.get("paging", "native");
  paging::ThpParams thp;
  // base 0: --thp-seed accepts decimal or 0x-prefixed hex.
  thp.frag_seed = std::strtoull(
      opts.get("thp-seed", std::to_string(thp.frag_seed)).c_str(), nullptr, 0);
  thp.frag_base = opts.get_double("thp-frag", thp.frag_base);
  thp.frag_growth = opts.get_double("thp-growth", thp.frag_growth);
  thp.compaction_interval = static_cast<std::uint32_t>(
      opts.get_int("thp-interval", thp.compaction_interval));
  std::vector<paging::PolicySpec> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string token = list.substr(start, comma - start);
    start = comma + 1;
    paging::Policy p;
    if (!paging::policy_from_name(token, p)) {
      std::cerr << "unknown paging policy '" << token << "' in --paging="
                << list << " (valid: native,base4k,hugetlb2m,huge1g,thp)\n";
      std::exit(2);
    }
    paging::PolicySpec spec;
    spec.policy = p;
    if (p == paging::Policy::thp) spec.thp = thp;
    out.push_back(spec);
  }
  return out;
}

/// Problem class from its name ("S", "W", "A", "B", "R"); throws
/// OptionError on anything else (a lower-case "s" must not run class R).
inline npb::Klass klass_by_name(const std::string& name) {
  for (npb::Klass k : {npb::Klass::S, npb::Klass::W, npb::Klass::A,
                       npb::Klass::B, npb::Klass::R}) {
    if (name == npb::klass_name(k)) return k;
  }
  throw OptionError("unknown class '" + name + "' (valid: S, W, A, B, R)");
}

/// Canonical comma-joined kernel list ("BT,CG,FT,SP,MG,GUPS,GT,PC") — the
/// --kernels= default and the valid set shown on a parse error.
inline std::string all_kernel_names() {
  std::string names;
  for (npb::Kernel k : npb::all_kernels()) {
    if (!names.empty()) names += ',';
    names += npb::kernel_name(k);
  }
  return names;
}

/// Parses --kernels= as an exact comma-separated list ("CG,FT"). Unknown or
/// empty tokens abort with a clear message instead of being silently
/// dropped; kernels run in canonical (all_kernels) order, deduplicated.
inline std::vector<npb::Kernel> kernels_from(const Options& opts) {
  const std::string list = opts.get("kernels", all_kernel_names());
  std::vector<bool> wanted(npb::all_kernels().size(), false);
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string token = list.substr(start, comma - start);
    start = comma + 1;
    bool known = false;
    const std::vector<npb::Kernel> all = npb::all_kernels();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (token == npb::kernel_name(all[i])) {
        wanted[i] = true;
        known = true;
        break;
      }
    }
    if (!known) {
      std::cerr << "unknown kernel '" << token << "' in --kernels=" << list
                << " (valid: " << all_kernel_names() << ")\n";
      std::exit(2);
    }
  }
  std::vector<npb::Kernel> out;
  const std::vector<npb::Kernel> all = npb::all_kernels();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (wanted[i]) out.push_back(all[i]);
  }
  return out;
}

/// Runtime config for one simulated run.
inline core::RuntimeConfig make_config(const sim::ProcessorSpec& spec,
                                       unsigned threads, PageKind kind) {
  core::RuntimeConfig cfg;
  cfg.num_threads = threads;
  cfg.page_kind = kind;
  cfg.sim = core::SimConfig{spec, sim::CostModel{}, 0x5eedULL};
  return cfg;
}

/// One kernel run; aborts loudly if the kernel fails verification, since a
/// wrong answer invalidates the timing.
inline npb::NpbResult run_checked(npb::Kernel kernel, npb::Klass klass,
                                  const sim::ProcessorSpec& spec,
                                  unsigned threads, PageKind kind) {
  npb::NpbResult r =
      npb::run_kernel(kernel, klass, make_config(spec, threads, kind));
  if (!r.verified) {
    std::cerr << "VERIFICATION FAILED: " << npb::kernel_name(kernel) << "."
              << npb::klass_name(klass) << " (" << spec.name << ", "
              << page_kind_name(kind) << ", " << threads
              << "T): " << r.verification_detail << "\n";
    std::exit(2);
  }
  return r;
}

inline std::string improvement(double t4k, double t2m) {
  return format_percent((t4k - t2m) / t4k);
}

// --- experiment-engine plumbing (parallel harnesses) -------------------------

/// Exits 2 on the flags removed with the replay tiers (--no-trace,
/// --no-multilane, --no-analytic, --trace-store-mb) and on a --strategy= /
/// LPOMP_STRATEGY other than live or auto.
inline void reject_removed_flags(const Options& opts) {
  for (const char* flag :
       {"no-trace", "no-multilane", "no-analytic", "trace-store-mb"}) {
    if (!opts.get(flag, "").empty()) {
      std::cerr << "--" << flag << " was removed with the replay tiers "
                << "(valid strategies: " << exec::kStrategyNames << ")\n";
      std::exit(2);
    }
  }
  const std::string name = opts.get("strategy", "auto");
  if (!exec::strategy_from_name(name)) {
    std::cerr << "unknown --strategy=" << name
              << " (valid: " << exec::kStrategyNames << ")\n";
    std::exit(2);
  }
}

/// The sweep's execution strategy from --strategy=live|auto (default auto;
/// both run every uncached grid point live).
inline exec::Strategy strategy_from(const Options& opts) {
  reject_removed_flags(opts);
  return *exec::strategy_from_name(opts.get("strategy", "auto"));
}

/// --workers= / LPOMP_WORKERS: pool size, 0 → one per host core. A
/// negative count exits 2.
inline unsigned workers_from(const Options& opts) {
  const long workers = opts.get_int("workers", 0);
  if (workers < 0) {
    std::cerr << "--workers=" << workers
              << " must be >= 0 (0 = one per host core)\n";
    std::exit(2);
  }
  return static_cast<unsigned>(workers);
}

/// Scheduler config from --workers= (workers_from), --store-dir= (layers
/// the disk-persistent result store under the LRU, so results survive the
/// process) and --topology=SxC (fixes the pool's socket × core shape
/// independently of the host, e.g. --topology=2x2 in CI identity checks).
/// Results are bit-identical under any combination.
inline exec::Scheduler::Config scheduler_config(const Options& opts) {
  exec::Scheduler::Config cfg;
  cfg.workers = workers_from(opts);
  cfg.store_dir = opts.get("store-dir", "");
  const std::string topo = opts.get("topology", "");
  if (!topo.empty()) {
    try {
      cfg.topology = exec::Topology::parse(topo);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
  }
  return cfg;
}

// --- trace plumbing (record a live run, replay it) ---------------------------

/// Runs `task` live with a TraceRecorder attached. Returns the live result
/// and stores the recorded stream in `out` (its meta carries the run's
/// verified/checksum, which replays copy through).
inline npb::NpbResult record_live(const exec::RunTask& task,
                                  trace::Trace& out) {
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
inline trace::ReplayConfig replay_config(const exec::RunTask& task) {
  trace::ReplayConfig cfg{task.spec, task.cost, task.seed,
                          task.code_page_kind};
  cfg.paging = task.paging;
  return cfg;
}

/// True when a replay reproduced every profile counter and the simulated
/// time of a live run.
inline bool same_counters(const npb::NpbResult& live,
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

/// Aborts loudly if any run of the sweep failed or mis-verified — the
/// engine-level analogue of run_checked (a wrong answer invalidates the
/// timing, so no table is printed from a bad sweep).
inline void require_all_verified(const exec::SweepResult& result) {
  for (const exec::RunRecord& r : result.records) {
    if (!r.ok) {
      std::cerr << "RUN FAILED: " << r.kernel << "." << r.klass << " ("
                << r.platform << ", " << r.page_kind << ", " << r.threads
                << "T): " << r.error << "\n";
      std::exit(2);
    }
    if (!r.verified) {
      std::cerr << "VERIFICATION FAILED: " << r.kernel << "." << r.klass
                << " (" << r.platform << ", " << r.page_kind << ", "
                << r.threads << "T)\n";
      std::exit(2);
    }
  }
}

/// Writes the sweep's JSON document to --json=<path> when given. By default
/// only deterministic fields are emitted, so two invocations with different
/// --workers= diff byte-identically; --json-host adds wall times and cache
/// provenance.
inline void write_json(const Options& opts, const exec::SweepResult& result) {
  const std::string path = opts.get("json", "");
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write --json=" << path << "\n";
    std::exit(2);
  }
  os << result.to_json(opts.get_flag("json-host")) << "\n";
  std::cout << "\nwrote " << path << " (" << result.records.size()
            << " runs)\n";
}

}  // namespace lpomp::bench

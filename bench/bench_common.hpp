// Shared plumbing for the paper-reproduction bench harnesses: axis and
// scheduler options, sweep verification, and result formatting. Every
// harness runs with sensible defaults (`for b in build/bench/*; do $b; done`
// regenerates every table/figure) and honours --klass= / --kernels= /
// LPOMP_* environment overrides. A driver's grid points run as RunTasks
// through exec::Scheduler.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "exec/scheduler.hpp"
#include "npb/npb.hpp"
#include "paging/policy.hpp"
#include "support/format.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace lpomp::bench {

// Option keys, for Options::require_known: a driver declares the keys it
// reads itself plus the group of each helper below that it calls.
/// Read by paging_from.
inline constexpr std::string_view kPagingKeys[] = {
    "paging", "thp-seed", "thp-frag", "thp-growth", "thp-interval"};
/// Read by scheduler_config.
inline constexpr std::string_view kSchedulerKeys[] = {"workers", "store-dir"};
/// Read by write_json.
inline constexpr std::string_view kJsonKeys[] = {"json", "json-host"};

/// Platform from --platform= (default "opteron"), through
/// ProcessorSpec::from_key; throws OptionError on anything else.
inline sim::ProcessorSpec platform_from(const Options& opts) {
  return opts.get_name("platform", "opteron", sim::ProcessorSpec::from_key,
                       sim::kPlatformKeys);
}

/// Problem class from --klass= (default `def`); throws OptionError on
/// anything else (a lower-case "s" must not run class R).
inline npb::Klass klass_from(const Options& opts, const char* def) {
  return opts.get_name("klass", def, npb::klass_from_name, npb::kKlasses);
}

/// Layout page kind from --<key>= (default 4KB): 4KB or 2MB. Throws
/// OptionError on anything else, 1GB included: 1 GB pages are the huge1g
/// paging policy (--paging=), not a layout.
inline PageKind page_kind_from(const Options& opts, const std::string& key) {
  return opts.get_name(key, "4KB", page_kind_from_name, kLayoutPageKinds);
}

/// Parses --paging= as a comma-separated paging-policy list ("native,
/// hugetlb2m,huge1g,thp"); an unknown token throws OptionError with the
/// valid set, and an absent flag yields the single native (identity)
/// policy. --thp-seed/--thp-frag/--thp-growth/--thp-interval override the
/// THP fragmentation model for every thp entry in the list (all four are
/// part of the result fingerprint); a malformed value, or an interval
/// outside [0, 2^32), throws OptionError.
inline std::vector<paging::PolicySpec> paging_from(const Options& opts) {
  paging::ThpParams thp;
  thp.frag_seed = opts.get_unsigned("thp-seed", thp.frag_seed);
  thp.frag_base = opts.get_double("thp-frag", thp.frag_base);
  thp.frag_growth = opts.get_double("thp-growth", thp.frag_growth);
  const long interval = opts.get_int("thp-interval", thp.compaction_interval);
  if (interval < 0 || interval > std::numeric_limits<std::uint32_t>::max()) {
    throw OptionError("--thp-interval=" + std::to_string(interval) +
                      ": must be in [0, 4294967295]");
  }
  thp.compaction_interval = static_cast<std::uint32_t>(interval);
  std::vector<paging::PolicySpec> out;
  for (const paging::Policy p : opts.get_names("paging", "native",
                                               paging::policy_from_name,
                                               paging::kPolicies)) {
    paging::PolicySpec spec;
    spec.policy = p;
    if (p == paging::Policy::thp) spec.thp = thp;
    out.push_back(spec);
  }
  return out;
}

/// --paging= adds the paging-policy axis (paging_from) to `spec`, whose
/// layout axis then collapses to 4 KB: every policy reinterprets the same
/// address stream. Returns whether it did.
inline bool add_paging_axis(const Options& opts, exec::SweepSpec& spec) {
  if (opts.get("paging", "").empty()) return false;
  spec.page_kinds = {PageKind::small4k};
  spec.paging_policies = paging_from(opts);
  return true;
}

/// Parses --kernels= as an exact comma-separated list ("CG,FT"; default all
/// kernels). An unknown or empty token throws OptionError with the valid
/// set; kernels run in canonical (all_kernels) order, deduplicated.
inline std::vector<npb::Kernel> kernels_from(const Options& opts) {
  const std::vector<npb::Kernel> wanted =
      opts.get_names("kernels", npb::kKernels.list(","),
                     npb::kernel_from_name, npb::kKernels);
  std::vector<npb::Kernel> out;
  for (const npb::Kernel k : npb::all_kernels()) {
    if (std::find(wanted.begin(), wanted.end(), k) != wanted.end()) {
      out.push_back(k);
    }
  }
  return out;
}

inline std::string improvement(double t4k, double t2m) {
  return format_percent((t4k - t2m) / t4k);
}

// --- experiment-engine plumbing (parallel harnesses) -------------------------

/// --workers= / LPOMP_WORKERS: grid points that always run at once (narrow
/// points may add more, see exec::WidthGate), 0 → one per host core. A
/// negative count throws OptionError.
inline unsigned workers_from(const Options& opts) {
  const long workers = opts.get_int("workers", 0);
  if (workers < 0) {
    throw OptionError("--workers=" + std::to_string(workers) +
                      " must be >= 0 (0 = one per host core)");
  }
  return static_cast<unsigned>(workers);
}

/// Scheduler config from --workers= (workers_from) and --store-dir=
/// (layers the disk-persistent result store under the LRU, so results
/// survive the process). Results are bit-identical under any combination.
inline exec::Scheduler::Config scheduler_config(const Options& opts) {
  exec::Scheduler::Config cfg;
  cfg.workers = workers_from(opts);
  cfg.store_dir = opts.get("store-dir", "");
  return cfg;
}

/// Aborts loudly if any run of the sweep failed or mis-verified (a wrong
/// answer invalidates the timing, so no table is printed from a bad sweep).
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

// One parallel invocation that reproduces every headline number of the
// paper from a single scheduler sweep over the Figure 4 config grid
// ({BT,CG,FT,SP,MG,GUPS,GT,PC} × {Opteron, Xeon+HT} × {1,2,4,8}T ×
// {4KB,2MB}):
//
//   * Figure 4 — run-time improvement from 2 MB pages per thread count;
//   * Figure 5 — DTLB walk reduction at 4 threads on the Opteron (those
//     grid points are a subset of the Figure 4 grid, so they cost nothing
//     extra — the content-keyed cache serves them);
//   * Figure 3 — aggregate ITLB miss rate at 4 threads (negligible).
//
// Every uncached grid point runs live. --store-dir= layers the
// disk-persistent result store under the cache (the same store the sweep
// daemon serves from).
//
// --json-out=BENCH_sweep.json writes the machine-readable perf summary CI
// trends: cold/warm wall-clock, warm cache-hit rate, and a per-run
// wall-time/provenance row for every grid point.
//
// After the cold sweep the same grid is rerun warm to exercise the result
// cache: the rerun must be served (≥90 %, in practice 100 %) from cache and
// must be counter-for-counter identical to the cold pass. The JSON output
// (--json=sweep.json) contains the warm-rerun verdict and every per-run
// record; by default only deterministic fields are emitted, so
//   sweep_all --workers=1 --json=a.json && sweep_all --workers=8 --json=b.json
// produces byte-identical files — the scheduler's determinism guarantee.
#include "bench/bench_common.hpp"
#include "exec/json.hpp"

using namespace lpomp;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"klass", "kernels", "json-out"}, bench::kPagingKeys,
                     bench::kSchedulerKeys, bench::kJsonKeys);
  const npb::Klass klass = bench::klass_from(opts, "R");

  exec::SweepSpec spec = exec::SweepSpec::figure4(klass);
  spec.kernels = bench::kernels_from(opts);
  const bool host = opts.get_flag("json-host");

  // --paging=native,hugetlb2m,huge1g,thp adds the paging-policy axis.
  const bool paging_axis = bench::add_paging_axis(opts, spec);

  exec::Scheduler scheduler(bench::scheduler_config(opts));
  std::cout << "sweep_all: " << spec.expand().size()
            << " runs over the Figure 4 grid (class " << npb::klass_name(klass)
            << "), " << scheduler.workers() << " workers\n";

  const exec::SweepResult cold = scheduler.run(spec);
  bench::require_all_verified(cold);
  std::cout << "cold sweep: " << cold.completed() << "/"
            << cold.records.size() << " runs in "
            << format_seconds(cold.wall_ms / 1e3) << "s wall ("
            << format_seconds(cold.total_simulated_seconds())
            << "s simulated)\n";

  // Warm rerun over the identical grid: every task must be served from the
  // result cache with counters identical to the cold pass.
  const exec::SweepResult warm = scheduler.run(spec);
  bool identical = warm.records.size() == cold.records.size();
  for (std::size_t i = 0; identical && i < warm.records.size(); ++i) {
    identical = warm.records[i].same_result(cold.records[i]);
  }
  const double warm_hit_rate =
      warm.records.empty()
          ? 0.0
          : static_cast<double>(warm.cache_hits()) /
                static_cast<double>(warm.records.size());
  std::cout << "warm rerun: " << warm.cache_hits() << "/"
            << warm.records.size() << " served from cache ("
            << format_percent(warm_hit_rate) << ") in "
            << format_seconds(warm.wall_ms / 1e3) << "s wall; counters "
            << (identical ? "identical" : "DIFFER") << "\n";

  // --- headline table: the paper's §4.4 results in one place -------------
  const std::string opteron = sim::ProcessorSpec::opteron270().name;
  const std::string xeon = sim::ProcessorSpec::xeon_ht().name;
  if (paging_axis) {
    // Policy sweep: per-kernel run time and total walk count at 4 threads on
    // the Opteron, one column pair per policy, improvement vs the first
    // policy in the list (conventionally native/base4k).
    std::cout << "\nPaging-policy comparison (4 threads, Opteron):\n";
    std::vector<std::string> header = {"app"};
    for (const paging::PolicySpec& p : spec.paging_policies) {
      header.push_back(std::string(p.name()) + " improv");
      header.push_back(std::string(p.name()) + " walks");
    }
    TextTable table(header);
    for (npb::Kernel k : spec.kernels) {
      const std::string kernel = npb::kernel_name(k);
      const exec::RunRecord* base = cold.find(
          kernel, opteron, 4, "4KB", spec.paging_policies.front().name());
      std::vector<std::string> row = {kernel};
      for (const paging::PolicySpec& p : spec.paging_policies) {
        const exec::RunRecord* r =
            cold.find(kernel, opteron, 4, "4KB", p.name());
        if (r == nullptr || base == nullptr) {
          row.push_back("-");
          row.push_back("-");
          continue;
        }
        row.push_back(bench::improvement(base->simulated_seconds,
                                         r->simulated_seconds));
        row.push_back(std::to_string(r->dtlb_walks_4k + r->dtlb_walks_2m +
                                     r->dtlb_walks_1g));
      }
      table.add_row(row);
    }
    table.print();
  } else {
    std::cout << "\nHeadline reproduction (4 threads, Opteron; Fig. 3/4/5):\n";
    TextTable table({"app", "2MB improv @4T", "DTLB walk reduction",
                     "ITLB misses/sec", "xeon 2MB improv @8T"});
    for (npb::Kernel k : spec.kernels) {
      const std::string kernel = npb::kernel_name(k);
      const exec::RunRecord* o4k = cold.find(kernel, opteron, 4, "4KB");
      const exec::RunRecord* o2m = cold.find(kernel, opteron, 4, "2MB");
      const exec::RunRecord* x4k = cold.find(kernel, xeon, 8, "4KB");
      const exec::RunRecord* x2m = cold.find(kernel, xeon, 8, "2MB");
      const count_t w4k = o4k->dtlb_walks_4k + o4k->dtlb_walks_2m;
      const count_t w2m = o2m->dtlb_walks_4k + o2m->dtlb_walks_2m;
      table.add_row(
          {kernel,
           bench::improvement(o4k->simulated_seconds, o2m->simulated_seconds),
           w2m ? format_ratio(static_cast<double>(w4k) /
                              static_cast<double>(w2m)) +
                     "x"
               : "inf",
           format_ratio(static_cast<double>(o4k->itlb_misses) /
                        (o4k->simulated_seconds > 0 ? o4k->simulated_seconds
                                                    : 1.0)),
           bench::improvement(x4k->simulated_seconds, x2m->simulated_seconds)});
    }
    table.print();
    std::cout << "\nPaper targets: CG ~25%, SP ~20%, MG ~17% @4T Opteron; "
                 "BT/FT flat;\nDTLB reduction >=10x for CG/SP/MG vs 2-3x for "
                 "BT/FT; ITLB negligible;\nSP ~13% @8T Xeon.\n";
  }

  // --- JSON document ------------------------------------------------------
  const std::string path = opts.get("json", "");
  exec::JsonWriter w;
  w.begin_object();
  w.field("schema", "lpomp-sweep-all-v1");
  w.key("warm_rerun");
  w.begin_object();
  w.field("tasks", static_cast<std::uint64_t>(warm.records.size()));
  w.field("cache_hits", static_cast<std::uint64_t>(warm.cache_hits()));
  w.field("cache_hit_rate", warm_hit_rate);
  w.field("identical_to_cold", identical);
  if (host) w.field("wall_ms", warm.wall_ms);
  w.end_object();
  w.key("sweep");
  w.raw(cold.to_json(host));
  w.end_object();
  if (!path.empty()) {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "cannot write --json=" << path << "\n";
      return 2;
    }
    os << w.str() << "\n";
    std::cout << "\nwrote " << path << "\n";
  }

  // --- BENCH summary (--json-out) -----------------------------------------
  // Compact perf-trend document: wall-clock and cache-hit rate, plus one
  // wall-time/provenance row per grid point. CI uploads it and warns
  // (non-blocking) when wall-clock regresses against the committed
  // reference.
  const std::string bench_path = opts.get("json-out", "");
  if (!bench_path.empty()) {
    exec::JsonWriter b;
    b.begin_object();
    b.field("schema", "lpomp-bench-sweep-v8");
    b.field("klass", std::string(npb::klass_name(klass)));
    b.field("workers", static_cast<std::uint64_t>(cold.workers));
    b.key("paging");
    b.begin_array();
    for (const paging::PolicySpec& p : spec.paging_policies) {
      b.value(p.name());
    }
    b.end_array();
    b.field("runs", static_cast<std::uint64_t>(cold.records.size()));
    b.field("cold_wall_ms", cold.wall_ms);
    b.field("warm_wall_ms", warm.wall_ms);
    b.field("warm_cache_hit_rate", warm_hit_rate);
    // Persistent-store telemetry (all zero when --store-dir= is not given).
    b.key("store");
    b.begin_object();
    b.field("enabled", scheduler.disk_store() != nullptr);
    b.field("hits", cold.store.hits + warm.store.hits);
    b.field("misses", cold.store.misses + warm.store.misses);
    b.field("insertions", cold.store.insertions + warm.store.insertions);
    b.field("quarantined", cold.store.quarantined + warm.store.quarantined);
    b.field("bytes_read", cold.store.bytes_read + warm.store.bytes_read);
    b.field("bytes_written",
            cold.store.bytes_written + warm.store.bytes_written);
    b.end_object();
    b.key("runs_detail");
    b.begin_array();
    for (const exec::RunRecord& r : cold.records) {
      b.begin_object();
      b.field("label",
              r.kernel + "." + r.klass + "/" + r.platform + "/" +
                  std::to_string(r.threads) + "T/" + r.page_kind +
                  (r.paging == "native" ? "" : "/" + r.paging));
      b.field("paging", r.paging);
      b.field("wall_ms", r.wall_ms);
      b.field("cache_hit", r.cache_hit);
      b.field("store_hit", r.store_hit);
      b.end_object();
    }
    b.end_array();
    b.end_object();
    std::ofstream os(bench_path);
    if (!os) {
      std::cerr << "cannot write --json-out=" << bench_path << "\n";
      return 2;
    }
    os << b.str() << "\n";
    std::cout << "wrote " << bench_path << "\n";
  }

  if (!identical) {
    std::cerr << "FAIL: warm rerun diverged from cold sweep\n";
    return 1;
  }
  if (warm_hit_rate < 0.9) {
    std::cerr << "FAIL: warm-cache hit rate " << format_percent(warm_hit_rate)
              << " below 90%\n";
    return 1;
  }
  return 0;
}

// Scheduler — the library-grade core of the experiment engine.
//
// Takes a declarative SweepSpec (or an explicit task list), expands it into
// independent RunTasks, and runs them on threads started for that sweep
// alone: each takes the next task index from one shared counter, and the
// width gate bounds how many run at once. Each task constructs its own
// Runtime/AddressSpace/Machine inside npb::run_kernel, so results are
// bit-identical to a serial loop regardless of worker count, scheduling
// order, or execution Strategy — the determinism the paper reproduction
// depends on, preserved while filling every host core.
//
// Around execution sit three layers:
//   * a content-keyed in-memory LRU ResultCache (canonical config
//     serialisation → RunRecord), so repeated or overlapping sweeps skip
//     completed runs;
//   * an optional disk-persistent, content-addressed DiskResultStore under
//     the LRU (Config::store_dir), so results survive the process: a
//     fresh scheduler — or a separate process, e.g. the sweep daemon after
//     a restart — serves previously computed grid points from disk, and a
//     warm entry promotes into the LRU so repeat hits never touch disk;
//   * structured observability: every run yields a JSON RunRecord and a
//     sweep yields a JSON summary (config echo, simulated cycles, walk
//     counts per PageKind, wall time, cache/store provenance).
//
// Every uncached task runs live: probe the LRU/disk store, run the kernel
// with the simulator attached, commit. The Strategy axis (strategy.hpp) is
// kept as the wire spelling of that one path.
//
// Each distinct simulation runs once. A task whose paging policy acts on
// its shared pool as another policy does (base4k on 4 KB pages and
// hugetlb2m on 2 MB pages are native; thp is hugetlb2m when every 2 MB
// chunk of the pool is promoted and base4k when none is; see shared_key)
// takes the result of the task with that policy, relabelled as its own
// record and committed under its own key.
//
// This core is deliberately front-end-free: no CLI parsing, no stdout, no
// benchmark assumptions. The benches and the sweep daemon (src/serve) are
// front ends over it.
//
// Failure isolation: a task that throws is recorded (ok=false, error=what)
// without poisoning the sweep — all other tasks still run and the sweep
// returns normally.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/disk_store.hpp"
#include "exec/fingerprint.hpp"
#include "exec/record.hpp"
#include "exec/result_cache.hpp"
#include "exec/strategy.hpp"
#include "exec/sweep.hpp"
#include "exec/width_gate.hpp"

namespace lpomp::exec {

/// Result of one scheduler sweep: records in task order plus aggregates.
struct SweepResult {
  std::vector<RunRecord> records;  ///< task order, independent of scheduling
  unsigned workers = 0;
  double wall_ms = 0.0;
  ResultCache::Stats cache;        ///< LRU activity of THIS sweep only
  DiskResultStore::Stats store;    ///< disk-store activity of THIS sweep only
  Strategy strategy = Strategy::Auto;  ///< as requested for this sweep
  /// Most live runs in flight at once, and most host threads they asked
  /// for (the sum of their team widths); see Scheduler::run.
  unsigned peak_tasks_in_flight = 0;
  std::uint64_t peak_host_threads = 0;
  /// Records that took another task's run (see Scheduler::run); their
  /// cache_hit and store_hit are false.
  std::size_t shared_runs = 0;

  std::size_t completed() const;  ///< records with ok
  std::size_t failed() const;
  std::size_t cache_hits() const;  ///< served from the in-memory LRU
  std::size_t store_hits() const;  ///< served from the persistent store
  double total_simulated_seconds() const;

  /// Record for a (kernel, platform, threads, page kind) grid point, or
  /// nullptr — the lookup the figure harnesses print their tables from.
  /// Returns the first match, so on a multi-policy sweep this is the first
  /// policy in grid order; use the policy-qualified overload to pick one.
  const RunRecord* find(const std::string& kernel, const std::string& platform,
                        unsigned threads, const std::string& page_kind) const;

  /// Same lookup additionally keyed by paging-policy name ("native", "thp"…).
  const RunRecord* find(const std::string& kernel, const std::string& platform,
                        unsigned threads, const std::string& page_kind,
                        const std::string& paging) const;

  /// {"schema":...,"summary":{...},"runs":[...]}. With include_host=false
  /// only deterministic fields are emitted (golden files, worker-count
  /// equivalence diffs).
  std::string to_json(bool include_host = true) const;
  std::string summary_json(bool include_host = true) const;
};

class Scheduler {
 public:
  struct Config {
    /// Live runs that always start at once (P); narrow ones may add more,
    /// see run(). 0 → one per CPU the process may use (host_threads()).
    unsigned workers = 0;
    std::size_t cache_capacity = 4096;
    /// Root directory of the disk-persistent result store; empty → no
    /// disk tier (in-memory LRU only, the historical behaviour).
    std::string store_dir = {};
  };

  /// Maps a task to its record; the default runs npb::run_kernel. Tests
  /// substitute runners to inject failures or count executions. May throw:
  /// the scheduler converts exceptions into ok=false records.
  using TaskRunner = std::function<RunRecord(const RunTask&)>;

  Scheduler() : Scheduler(Config{}) {}
  explicit Scheduler(Config config);

  unsigned workers() const { return workers_; }
  ResultCache& cache() { return cache_; }
  /// The disk tier, or nullptr when Config::store_dir was empty.
  DiskResultStore* disk_store() { return disk_store_.get(); }
  const DiskResultStore* disk_store() const { return disk_store_.get(); }
  void set_task_runner(TaskRunner runner);

  /// Runs a sweep. Not reentrant: one run() at a time per scheduler
  /// (callers like the sweep daemon serialise). `strategy` is echoed in
  /// the host summary; every strategy runs the same live path.
  ///
  /// In each round, the calling thread and min(round's tasks,
  /// WidthGate::max_in_flight()) − 1 threads started for it take task
  /// indices in grid order from one counter; all are joined before the
  /// round ends, so a one-task sweep runs on the caller and an idle
  /// scheduler holds no threads.
  ///
  /// Live runs are admitted by team width (WidthGate): with P =
  /// workers(), W = the widest task's `threads` and H = host_threads()
  /// (the CPUs in the affinity mask), a run of width w starts while fewer
  /// than P runs are in flight, or while the in-flight widths plus w stay
  /// within min(P × W, H).
  ///
  /// One run per distinct simulation: a first round of drainers takes
  /// one task of each simulation key (shared_key, else cache_key), the
  /// first whose own key it is, or the first that shares it when no task
  /// of the list has it as its own key. A second round, started after the
  /// first joins, takes the rest: each probes its own key, then its
  /// simulation's key, and runs itself only when both miss (the first
  /// task failed, or the LRU evicted its record and there is no disk
  /// store).
  SweepResult run(const SweepSpec& spec, Strategy strategy = Strategy::Auto);
  SweepResult run(const std::vector<RunTask>& tasks,
                  Strategy strategy = Strategy::Auto);

  /// The default runner: one full simulated kernel run. Aborting on
  /// verification failure is the caller's policy; the record carries
  /// `verified` either way.
  static RunRecord execute_task(const RunTask& task);

  /// Config-echo fields + content-key digest, no run outcome (the skeleton
  /// both execute_task and the failure path start from).
  static RunRecord base_record(const RunTask& task);

 private:
  /// Layered probe: in-memory LRU first, then the disk store (a disk hit
  /// promotes into the LRU). Stamps cache_hit/store_hit provenance; the
  /// caller stamps wall_ms.
  std::optional<RunRecord> probe(const std::string& key);
  /// Write-through commit of a successful record to LRU + disk.
  void commit(const std::string& key, const RunRecord& record);

  /// One task: probe `key`, then `shared` (the simulation's key, when it
  /// differs), and only on two misses run the task. A hit on `shared` is
  /// relabelled, committed under `key` and counted in `shared_runs`.
  RunRecord run_one(const RunTask& task, const std::string& key,
                    const std::optional<std::string>& shared, WidthGate& gate,
                    std::atomic<std::size_t>& shared_runs);

  Config config_;
  TaskRunner runner_ = execute_task;
  ResultCache cache_;
  std::unique_ptr<DiskResultStore> disk_store_;
  unsigned workers_;
};

}  // namespace lpomp::exec

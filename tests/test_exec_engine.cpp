// Tests for the parallel sweep scheduler: scheduling determinism (the
// same sweep on 1 worker and on randomized worker counts yields identical
// results, under both strategy spellings and a paging overlay), the
// content-keyed result cache (hits, eviction, key sensitivity), failure
// isolation, one run per distinct simulation (a task whose paging policy
// is the identity on its layout takes its native point's run),
// width-aware admission of live runs, and the JSON observability layer.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/fingerprint.hpp"
#include "exec/json.hpp"
#include "exec/scheduler.hpp"
#include "paging/policy.hpp"

namespace lpomp::exec {
namespace {

/// A small but real grid: two kernels × Opteron × {1,2} threads × both page
/// kinds at class S — 8 full simulated runs, fast enough for a unit test.
SweepSpec small_sweep() {
  SweepSpec spec;
  spec.kernels = {npb::Kernel::CG, npb::Kernel::MG};
  spec.klass = npb::Klass::S;
  spec.platforms = {sim::ProcessorSpec::opteron270()};
  spec.threads = {1, 2};
  return spec;
}

/// Cheap fake runner for cache/scheduling tests that don't need a real
/// simulation: marks the record ok and stamps a value derived from the task.
RunRecord fake_runner(const RunTask& task) {
  RunRecord r = Scheduler::base_record(task);
  r.ok = true;
  r.verified = true;
  r.cycles = 1000 + task.threads;
  return r;
}

TEST(SweepSpec, ExpandSkipsThreadCountsBeyondPlatform) {
  SweepSpec spec = SweepSpec::figure4(npb::Klass::S);
  spec.kernels = {npb::Kernel::CG};
  const std::vector<RunTask> tasks = spec.expand();
  // Opteron (4 contexts): 3 thread counts × 2 kinds; Xeon (8): 4 × 2.
  EXPECT_EQ(tasks.size(), 3u * 2u + 4u * 2u);
  for (const RunTask& t : tasks) {
    EXPECT_LE(t.threads, t.spec.max_threads());
  }
}

TEST(SweepSpec, DefaultSeedsMatchSerialHarnesses) {
  for (const RunTask& t : small_sweep().expand()) {
    EXPECT_EQ(t.seed, 0x5eedULL);
  }
}

TEST(SweepSpec, PerTaskSeedsAreDistinctAndReproducible) {
  SweepSpec spec = small_sweep();
  spec.per_task_seeds = true;
  const std::vector<RunTask> a = spec.expand();
  const std::vector<RunTask> b = spec.expand();
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);  // derivation is pure
    seeds.insert(a[i].seed);
  }
  EXPECT_EQ(seeds.size(), a.size());  // splitmix streams don't collide here
}

TEST(CacheKey, IdenticalTasksShareAKeyDifferentTasksDoNot) {
  const std::vector<RunTask> tasks = small_sweep().expand();
  std::set<std::string> keys;
  for (const RunTask& t : tasks) {
    EXPECT_EQ(cache_key(t), cache_key(t));
    keys.insert(cache_key(t));
  }
  EXPECT_EQ(keys.size(), tasks.size());

  // Any field the result depends on must change the key.
  RunTask base = tasks[0];
  RunTask cost_tweak = base;
  cost_tweak.cost.smt_flush += 1;
  EXPECT_NE(cache_key(base), cache_key(cost_tweak));
  RunTask seed_tweak = base;
  seed_tweak.seed ^= 1;
  EXPECT_NE(cache_key(base), cache_key(seed_tweak));
  RunTask spec_tweak = base;
  spec_tweak.spec.l1_dtlb.small4k.entries += 8;
  EXPECT_NE(cache_key(base), cache_key(spec_tweak));
}

/// The worker-identity grid: two kernels × both platforms × {1,2,4}
/// threads × both page kinds at class S.
SweepSpec identity_sweep() {
  SweepSpec spec = small_sweep();
  spec.platforms = {sim::ProcessorSpec::opteron270(),
                    sim::ProcessorSpec::xeon_ht()};
  spec.threads = {1, 2, 4};
  return spec;
}

/// Counter-identity of two sweeps: every record same_result() and the
/// deterministic JSON projections byte-identical (what CI diffs).
void expect_identical(const SweepResult& a, const SweepResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.records.size(), b.records.size()) << label;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_TRUE(a.records[i].same_result(b.records[i]))
        << label << " diverged at " << a.records[i].kernel << " "
        << a.records[i].threads << "T " << a.records[i].page_kind;
  }
  EXPECT_EQ(a.to_json(false), b.to_json(false)) << label;
}

// The tentpole guarantee: worker count changes wall-clock behaviour only.
// Every deterministic field — simulated seconds, checksums, all counters —
// must be identical between a serial and a maximally parallel sweep, and
// so must the deterministic JSON projections (what `sweep_all
// --workers=1` vs `--workers=N` diffs).
TEST(Scheduler, OneWorkerAndManyWorkersAgreeExactly) {
  Scheduler serial({.workers = 1});
  Scheduler wide({.workers = 4});
  const SweepSpec spec = small_sweep();

  const SweepResult a = serial.run(spec);
  const SweepResult b = wide.run(spec);

  EXPECT_EQ(a.failed(), 0u);
  for (const RunRecord& r : a.records) EXPECT_TRUE(r.verified);
  expect_identical(a, b, "4 workers");
}

// Randomized worker counts must change nothing but wall-clock behaviour:
// both strategy spellings produce records counter-identical to the
// single-worker baseline.
TEST(WorkerIdentity, RandomWorkerCountsMatchSingleWorkerUnderEveryStrategy) {
  const SweepSpec spec = identity_sweep();
  std::mt19937 rng(0x70b0);  // fixed seed: reproducible worker counts
  std::uniform_int_distribution<unsigned> workers(2, 9);

  for (const Strategy strategy : {Strategy::Live, Strategy::Auto}) {
    Scheduler baseline({.workers = 1});
    const SweepResult want = baseline.run(spec, strategy);
    EXPECT_EQ(want.failed(), 0u);

    for (int round = 0; round < 2; ++round) {
      const unsigned n = workers(rng);
      Scheduler scheduler({.workers = n});
      EXPECT_EQ(scheduler.workers(), n);
      const SweepResult got = scheduler.run(spec, strategy);
      expect_identical(want, got,
                       std::string(strategy_name(strategy)) + " @ " +
                           std::to_string(n) + " workers");
    }
  }
}

// Paging-policy overlays must stay identical across worker counts too.
TEST(WorkerIdentity, PagingPolicySweepMatchesSingleWorker) {
  SweepSpec spec = identity_sweep();
  spec.kernels = {npb::Kernel::CG};
  paging::PolicySpec thp;
  thp.policy = paging::policy_from_name("thp").value();
  spec.paging_policies = {paging::PolicySpec{}, thp};

  Scheduler baseline({.workers = 1});
  const SweepResult want = baseline.run(spec);
  EXPECT_EQ(want.failed(), 0u);

  Scheduler scheduler({.workers = 4});
  expect_identical(want, scheduler.run(spec), "paging @ 4 workers");
}

// The drainers share one task counter: every task runs exactly once, and
// its record lands in its own slot, whatever the worker count.
TEST(Scheduler, EveryTaskRunsExactlyOnceAtAnyWorkerCount) {
  std::vector<RunTask> tasks(64, small_sweep().expand().front());
  for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i].seed = i;
  for (const unsigned workers : {1u, 4u, 0u}) {
    Scheduler engine({.workers = workers});
    std::mutex mutex;
    std::map<std::uint64_t, int> runs;  // by seed
    engine.set_task_runner([&](const RunTask& t) {
      std::lock_guard lock(mutex);
      ++runs[t.seed];
      return fake_runner(t);
    });
    const SweepResult result = engine.run(tasks);
    ASSERT_EQ(runs.size(), tasks.size()) << workers << " workers";
    for (const auto& [seed, n] : runs) {
      EXPECT_EQ(n, 1) << "seed " << seed << ", " << workers << " workers";
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(result.records[i].seed, i);
    }
  }
}

TEST(Scheduler, ZeroWorkersMeansOnePerHostThread) {
  EXPECT_EQ(Scheduler({.workers = 0}).workers(), host_threads());
  EXPECT_EQ(Scheduler({.workers = 3}).workers(), 3u);
}

// host_threads() counts the CPUs the process may use, not the machine's:
// under a one-CPU mask (`taskset -c 0`) the gate budgets one host thread
// and `workers = 0` picks one worker. The test narrows its own thread's
// mask and restores it afterwards.
TEST(Scheduler, HostThreadsFollowTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

  const unsigned host = host_threads();
  Scheduler engine({.workers = 0});
  engine.set_task_runner(fake_runner);
  const SweepResult result = engine.run(small_sweep().expand());

  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(host, 1u);
  EXPECT_EQ(result.workers, 1u);
  EXPECT_EQ(host_threads(), static_cast<unsigned>(CPU_COUNT(&saved)));
}

// The calling thread is one of the drainers, so a one-task sweep starts no
// thread at all.
TEST(Scheduler, OneTaskSweepRunsOnTheCallingThread) {
  Scheduler engine({.workers = 4});
  std::thread::id ran_on;
  engine.set_task_runner([&](const RunTask& t) {
    ran_on = std::this_thread::get_id();
    return fake_runner(t);
  });
  const SweepResult result = engine.run({small_sweep().expand().front()});
  EXPECT_EQ(result.completed(), 1u);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(Scheduler, RepeatedSweepIsServedFromCache) {
  Scheduler engine({.workers = 2});
  std::atomic<int> executions{0};
  engine.set_task_runner([&](const RunTask& t) {
    ++executions;
    return fake_runner(t);
  });
  const SweepSpec spec = small_sweep();
  const std::size_t n = spec.expand().size();

  const SweepResult cold = engine.run(spec);
  EXPECT_EQ(executions.load(), static_cast<int>(n));
  EXPECT_EQ(cold.cache_hits(), 0u);
  EXPECT_EQ(cold.cache.insertions, n);

  const SweepResult warm = engine.run(spec);
  EXPECT_EQ(executions.load(), static_cast<int>(n));  // no re-execution
  EXPECT_EQ(warm.cache_hits(), n);
  EXPECT_EQ(warm.cache.hits, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(warm.records[i].cache_hit);
    EXPECT_TRUE(warm.records[i].same_result(cold.records[i]));
  }
}

TEST(Scheduler, OverlappingGridsShareCacheEntries) {
  // Figure 5's grid is a subset of Figure 4's: after a Figure 4 sweep, a
  // Figure 5 sweep must be fully cache-served.
  Scheduler engine({.workers = 2});
  engine.set_task_runner(fake_runner);
  SweepSpec fig4 = SweepSpec::figure4(npb::Klass::S);
  fig4.kernels = {npb::Kernel::CG};
  SweepSpec fig5 = SweepSpec::figure5(npb::Klass::S, 4);
  fig5.kernels = {npb::Kernel::CG};

  engine.run(fig4);
  const SweepResult r5 = engine.run(fig5);
  EXPECT_EQ(r5.cache_hits(), r5.records.size());
}

TEST(ResultCache, LruEvictionAndRecencyRefresh) {
  ResultCache cache(/*capacity=*/2);
  RunRecord r;
  r.ok = true;
  cache.insert("a", r);
  cache.insert("b", r);
  EXPECT_TRUE(cache.lookup("a").has_value());  // refreshes a → b is LRU
  cache.insert("c", r);                        // evicts b
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().insertions, 3u);
}

TEST(Scheduler, EvictedEntriesAreRecomputed) {
  Scheduler engine({.workers = 1, .cache_capacity = 2});
  std::atomic<int> executions{0};
  engine.set_task_runner([&](const RunTask& t) {
    ++executions;
    return fake_runner(t);
  });
  std::vector<RunTask> tasks(3);
  tasks[0].threads = 1;
  tasks[1].threads = 2;
  tasks[2].threads = 4;

  engine.run(tasks);
  EXPECT_EQ(executions.load(), 3);
  // tasks[0] was evicted (capacity 2, LRU); rerunning the full bag must
  // recompute it — and only it... then its insertion evicts tasks[1], which
  // in turn recomputes, and so on: with capacity < bag size every run
  // re-executes at least one task, but never serves a stale/wrong record.
  const SweepResult again = engine.run(tasks);
  EXPECT_GT(executions.load(), 3);
  for (const RunRecord& r : again.records) EXPECT_TRUE(r.ok);
}

TEST(Scheduler, ThrowingTaskDoesNotPoisonTheSweep) {
  Scheduler engine({.workers = 2});
  engine.set_task_runner([](const RunTask& t) -> RunRecord {
    if (t.threads == 2) throw std::runtime_error("injected task failure");
    return fake_runner(t);
  });
  const SweepSpec spec = small_sweep();  // threads {1,2} → half the tasks die
  const SweepResult result = engine.run(spec);

  ASSERT_EQ(result.records.size(), spec.expand().size());
  EXPECT_EQ(result.failed(), result.records.size() / 2);
  for (const RunRecord& r : result.records) {
    if (r.threads == 2) {
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.error, "injected task failure");
      EXPECT_FALSE(r.kernel.empty());  // config echo survives the failure
    } else {
      EXPECT_TRUE(r.ok);
    }
  }
  // Failures are not cached: a rerun retries them.
  std::atomic<int> retries{0};
  engine.set_task_runner([&](const RunTask& t) {
    if (t.threads == 2) ++retries;
    return fake_runner(t);
  });
  const SweepResult rerun = engine.run(spec);
  EXPECT_EQ(rerun.failed(), 0u);
  EXPECT_EQ(retries.load(), static_cast<int>(result.failed()));
}

TEST(Scheduler, RealInfeasibleTaskIsIsolatedToo) {
  // End-to-end failure path through the default runner: 16 threads exceed
  // the Opteron's 4 hardware contexts, so the Machine constructor throws.
  Scheduler engine({.workers = 2});
  std::vector<RunTask> tasks(2);
  tasks[0].klass = npb::Klass::S;
  tasks[0].threads = 1;
  tasks[1].klass = npb::Klass::S;
  tasks[1].threads = 16;

  const SweepResult result = engine.run(tasks);
  EXPECT_TRUE(result.records[0].ok);
  EXPECT_TRUE(result.records[0].verified);
  EXPECT_FALSE(result.records[1].ok);
  EXPECT_FALSE(result.records[1].error.empty());
}

// --- one run per distinct simulation ---------------------------------------

paging::PolicySpec policy_of(paging::Policy p) {
  paging::PolicySpec spec;
  spec.policy = p;
  return spec;
}

/// CG at class S on the Opteron, 1 and 2 threads, both layouts, under
/// native, base4k and hugetlb2m: 12 tasks, of which base4k on 4 KB and
/// hugetlb2m on 2 MB repeat their native point, so 8 are distinct.
SweepSpec sharing_sweep() {
  SweepSpec spec = small_sweep();
  spec.kernels = {npb::Kernel::CG};
  spec.paging_policies = {policy_of(paging::Policy::native),
                          policy_of(paging::Policy::base4k),
                          policy_of(paging::Policy::hugetlb2m)};
  return spec;
}

/// A TaskRunner that counts its calls and then runs `inner`.
Scheduler::TaskRunner counting(std::atomic<int>& calls,
                               Scheduler::TaskRunner inner) {
  return [&calls, inner](const RunTask& task) {
    ++calls;
    return inner(task);
  };
}

TEST(SharedRuns, GridRunsEachDistinctSimulationOnce) {
  const SweepSpec spec = sharing_sweep();
  const std::vector<RunTask> tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 12u);
  Scheduler engine({.workers = 2});
  std::atomic<int> runs{0};
  engine.set_task_runner(counting(runs, Scheduler::execute_task));
  const SweepResult result = engine.run(spec);

  EXPECT_EQ(runs.load(), 8);
  EXPECT_EQ(result.shared_runs, 4u);
  EXPECT_EQ(result.cache_hits(), 0u);
  EXPECT_NE(result.summary_json(true).find("\"shared_runs\":4"),
            std::string::npos);
  EXPECT_EQ(result.summary_json(false).find("shared_runs"), std::string::npos);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const RunRecord& r = result.records[i];
    EXPECT_EQ(r.paging, tasks[i].paging.name()) << tasks[i].label();
    EXPECT_EQ(r.key_digest, digest_hex(cache_key(tasks[i])))
        << tasks[i].label();
    const SweepResult lone = Scheduler({.workers = 1}).run({tasks[i]});
    EXPECT_TRUE(r.same_result(lone.records.front())) << tasks[i].label();
  }
}

TEST(SharedRuns, Base4kSweepAfterANativeSweepRunsNothing) {
  SweepSpec native = small_sweep();
  native.page_kinds = {PageKind::small4k};
  SweepSpec base4k = native;
  base4k.paging_policies = {policy_of(paging::Policy::base4k)};

  Scheduler engine({.workers = 2});
  std::atomic<int> runs{0};
  engine.set_task_runner(counting(runs, fake_runner));
  const SweepResult first = engine.run(native);
  const int native_runs = runs.load();
  const SweepResult shared = engine.run(base4k);
  EXPECT_EQ(runs.load(), native_runs);
  EXPECT_EQ(shared.shared_runs, shared.records.size());
  for (std::size_t i = 0; i < shared.records.size(); ++i) {
    const RunRecord& r = shared.records[i];
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.paging, "base4k");
    EXPECT_FALSE(r.cache_hit);
    EXPECT_FALSE(r.store_hit);
    EXPECT_EQ(r.cycles, first.records[i].cycles);
  }

  // Committed under their own keys: a rerun is served from the cache.
  const SweepResult again = engine.run(base4k);
  EXPECT_EQ(again.cache_hits(), again.records.size());
  EXPECT_EQ(again.shared_runs, 0u);
}

TEST(SharedRuns, FailedNativeRunLeavesBase4kToRunItself) {
  SweepSpec spec = small_sweep();
  spec.page_kinds = {PageKind::small4k};
  spec.paging_policies = {policy_of(paging::Policy::native),
                          policy_of(paging::Policy::base4k)};
  Scheduler engine({.workers = 2});
  std::atomic<int> base4k_runs{0};
  engine.set_task_runner([&](const RunTask& t) -> RunRecord {
    if (t.paging.is_native()) throw std::runtime_error("injected failure");
    ++base4k_runs;
    return fake_runner(t);
  });
  const SweepResult result = engine.run(spec);

  EXPECT_EQ(result.shared_runs, 0u);
  EXPECT_EQ(base4k_runs.load(), static_cast<int>(result.records.size() / 2));
  for (const RunRecord& r : result.records) {
    EXPECT_EQ(r.ok, r.paging == "base4k") << r.paging;
  }
}

TEST(SharedRuns, EvictedFirstRunLeavesBase4kToRunItself) {
  // Capacity 1: the second native run evicts the first before the base4k
  // task of the first point probes for it. Every task is 1T, so the width
  // gate admits one run at a time and the two native runs finish in task
  // order (a 2T task would let both run at once and finish in either).
  Scheduler engine({.workers = 1, .cache_capacity = 1});
  std::atomic<int> runs{0};
  engine.set_task_runner(counting(runs, fake_runner));
  std::vector<RunTask> tasks(3);
  tasks[1].kernel = npb::Kernel::MG;
  tasks[2].paging = policy_of(paging::Policy::base4k);
  const SweepResult result = engine.run(tasks);
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(result.shared_runs, 0u);
  EXPECT_EQ(result.completed(), 3u);
  EXPECT_EQ(result.records[2].paging, "base4k");
}

TEST(SharedRuns, PerTaskSeedsShareNothing) {
  SweepSpec spec = sharing_sweep();
  spec.per_task_seeds = true;
  Scheduler engine({.workers = 2});
  std::atomic<int> runs{0};
  engine.set_task_runner(counting(runs, fake_runner));
  const SweepResult result = engine.run(spec);
  EXPECT_EQ(runs.load(), static_cast<int>(result.records.size()));
  EXPECT_EQ(result.shared_runs, 0u);
}

/// perfbench's paging-S grid: CG, MG and GUPS at class S on the Opteron
/// and the modern core, 1 and 2 threads, 4 KB pages, all five policies.
SweepSpec paging_s_sweep() {
  SweepSpec spec = small_sweep();
  spec.kernels = {npb::Kernel::CG, npb::Kernel::MG, npb::Kernel::GUPS};
  spec.platforms = {sim::ProcessorSpec::opteron270(),
                    sim::ProcessorSpec::modern()};
  spec.page_kinds = {PageKind::small4k};
  spec.paging_policies = {
      policy_of(paging::Policy::native), policy_of(paging::Policy::base4k),
      policy_of(paging::Policy::hugetlb2m), policy_of(paging::Policy::huge1g),
      policy_of(paging::Policy::thp)};
  return spec;
}

// Every class-S pool of the grid is promoted chunk by chunk under the
// default ThpParams, so each thp task takes its hugetlb2m point's run, as
// each base4k task takes its native point's: 36 of 60 tasks run.
TEST(SharedRuns, PromotedThpPoolsTakeTheirHugetlb2mPointsRun) {
  const SweepSpec spec = paging_s_sweep();
  const std::vector<RunTask> tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 60u);
  Scheduler engine({.workers = 2});
  std::atomic<int> runs{0};
  engine.set_task_runner(counting(runs, Scheduler::execute_task));
  const SweepResult result = engine.run(spec);

  EXPECT_EQ(runs.load(), 36);
  EXPECT_EQ(result.shared_runs, 24u);
  int thp_tasks = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].paging.policy != paging::Policy::thp) continue;
    ++thp_tasks;
    const RunRecord& r = result.records[i];
    EXPECT_TRUE(r.ok) << tasks[i].label();
    EXPECT_EQ(r.key_digest, digest_hex(cache_key(tasks[i])))
        << tasks[i].label();
    const SweepResult lone = Scheduler({.workers = 1}).run({tasks[i]});
    EXPECT_TRUE(r.same_result(lone.records.front())) << tasks[i].label();
  }
  EXPECT_EQ(thp_tasks, 12);
}

// Which task of a simulation runs does not depend on where the policy list
// puts a derived policy: with base4k before native, or thp before
// hugetlb2m, the canonical task still runs in the first round and the
// derived one takes its run, so each order runs and shares as much as the
// canonical order and gives the same records.
TEST(SharedRuns, PolicyOrderDoesNotChangeWhatIsShared) {
  using paging::Policy;
  struct Outcome {
    int runs = 0;
    std::size_t shared = 0;
    std::map<std::string, RunRecord> by_key;  ///< key digest → record
  };
  const auto run_in_order = [](const std::vector<Policy>& order) {
    SweepSpec spec = paging_s_sweep();
    spec.paging_policies.clear();
    for (Policy p : order) spec.paging_policies.push_back(policy_of(p));
    Scheduler engine({.workers = 2});
    std::atomic<int> runs{0};
    engine.set_task_runner(counting(runs, Scheduler::execute_task));
    const SweepResult result = engine.run(spec);
    Outcome out{runs.load(), result.shared_runs, {}};
    for (const RunRecord& r : result.records) out.by_key[r.key_digest] = r;
    return out;
  };
  const std::vector<std::pair<std::vector<Policy>, std::vector<Policy>>>
      orders = {
          {{Policy::native, Policy::base4k, Policy::hugetlb2m, Policy::huge1g,
            Policy::thp},
           {Policy::thp, Policy::huge1g, Policy::hugetlb2m, Policy::base4k,
            Policy::native}},
          {{Policy::native, Policy::base4k}, {Policy::base4k, Policy::native}},
          {{Policy::hugetlb2m, Policy::thp}, {Policy::thp, Policy::hugetlb2m}},
      };
  for (const auto& [canonical, reversed] : orders) {
    const Outcome want = run_in_order(canonical);
    const Outcome got = run_in_order(reversed);
    const std::string label = paging::policy_name(reversed.front());
    EXPECT_GT(want.shared, 0u) << label;
    EXPECT_EQ(got.runs, want.runs) << label;
    EXPECT_EQ(got.shared, want.shared) << label;
    ASSERT_EQ(got.by_key.size(), want.by_key.size()) << label;
    for (const auto& [key, record] : want.by_key) {
      const auto it = got.by_key.find(key);
      ASSERT_NE(it, got.by_key.end()) << label << " " << key;
      EXPECT_TRUE(it->second.same_result(record)) << label << " " << key;
    }
  }
}

// CG.W's 4 KB pool spans seven 2 MB chunks, six of them promoted: its thp
// task keeps its own simulation.
TEST(SharedRuns, PartlyPromotedThpPoolIsNotShared) {
  RunTask task;
  task.kernel = npb::Kernel::CG;
  task.klass = npb::Klass::W;
  task.page_kind = PageKind::small4k;
  task.paging = policy_of(paging::Policy::thp);
  EXPECT_EQ(task.simulated_paging(), task.paging);
  EXPECT_FALSE(shared_key(task));

  const mem::Region pool =
      npb::pool_region(task.kernel, task.klass, task.page_kind);
  const paging::PagingModel model(task.paging);
  const std::uint64_t first = pool.base >> kLargePageShift;
  const std::uint64_t last = (pool.base + pool.length - 1) >> kLargePageShift;
  int promoted = 0;
  for (std::uint64_t c = first; c <= last; ++c) promoted += model.thp_promoted(c);
  EXPECT_EQ(last - first + 1, 7u);
  EXPECT_EQ(promoted, 6);
}

/// One task per entry of `widths` (team threads), each with its own seed so
/// every task has its own cache key.
std::vector<RunTask> tasks_of_widths(const std::vector<unsigned>& widths) {
  std::vector<RunTask> tasks(widths.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].klass = npb::Klass::S;
    tasks[i].threads = widths[i];
    tasks[i].seed = 1000 + i;
  }
  return tasks;
}

/// Counting TaskRunner state: live runs and host threads in flight, their
/// peaks, and executions per task seed. A run holds `hold` so runs
/// overlap; it first waits (at most 5 s) until `meet` runs have been in
/// flight at once, which makes "more than one run at a time" a
/// deterministic outcome rather than a race.
struct InFlight {
  unsigned workers = 1;                 ///< P of the scheduler under test
  unsigned budget = 0;                  ///< min(P × W, H) of the sweep
  unsigned meet = 1;
  std::chrono::milliseconds hold{2};

  std::mutex mutex;
  std::condition_variable cv;
  unsigned tasks = 0;
  unsigned host_threads = 0;
  unsigned peak_tasks = 0;
  unsigned peak_host_threads = 0;
  bool over_budget = false;  ///< more than P runs while over the budget
  std::map<std::uint64_t, int> runs;

  Scheduler::TaskRunner runner() {
    return [this](const RunTask& task) {
      {
        std::unique_lock lock(mutex);
        ++tasks;
        host_threads += task.threads;
        ++runs[task.seed];
        peak_tasks = std::max(peak_tasks, tasks);
        peak_host_threads = std::max(peak_host_threads, host_threads);
        if (tasks > workers && host_threads > budget) over_budget = true;
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(5),
                    [this] { return peak_tasks >= meet; });
      }
      std::this_thread::sleep_for(hold);
      {
        std::lock_guard lock(mutex);
        --tasks;
        host_threads -= task.threads;
      }
      return fake_runner(task);
    };
  }
};

/// Every task ran exactly once and its record sits in its task's slot.
void expect_each_once_in_order(const std::vector<RunTask>& tasks,
                               const SweepResult& result,
                               const InFlight& state) {
  ASSERT_EQ(result.records.size(), tasks.size());
  EXPECT_EQ(state.runs.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(state.runs.at(tasks[i].seed), 1) << "task " << i;
    EXPECT_EQ(result.records[i].seed, tasks[i].seed) << "task " << i;
    EXPECT_EQ(result.records[i].threads, tasks[i].threads) << "task " << i;
    EXPECT_TRUE(result.records[i].ok);
  }
}

// No sweep asks for more host threads than P runs of its widest team, and
// runs beyond P only start within min(P × W, H).
TEST(Admission, HostThreadsNeverExceedWorkersTimesWidest) {
  const std::vector<RunTask> tasks =
      tasks_of_widths({1, 2, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 2, 2, 1, 1});
  InFlight state;
  state.workers = 2;
  state.budget = std::min(2u * 2u, host_threads());
  Scheduler engine({.workers = 2});
  engine.set_task_runner(state.runner());

  const SweepResult result = engine.run(tasks);
  expect_each_once_in_order(tasks, result, state);
  EXPECT_LE(state.peak_host_threads, 2u * 2u);
  EXPECT_FALSE(state.over_budget);
  EXPECT_LE(result.peak_host_threads, 2u * 2u);
  EXPECT_GE(result.peak_tasks_in_flight, state.peak_tasks);
}

// At one worker, a sweep whose widest team is 4T runs its 1T points side
// by side on a multi-core host: those host threads are already budgeted.
// The 4T point is served from the cache, so it sets W without queueing
// ahead of the 1T runs (a queued 4T run would rightly hold them back).
TEST(Admission, NarrowRunsShareTheHostAtOneWorker) {
  const unsigned host = host_threads();
  const std::vector<RunTask> tasks = tasks_of_widths({1, 1, 1, 1, 1, 1, 4});
  InFlight state;
  state.workers = 1;
  state.budget = std::min(4u, host);
  Scheduler engine({.workers = 1});
  engine.set_task_runner(state.runner());
  engine.run(std::vector<RunTask>{tasks.back()});

  state.meet = host > 1 ? 2 : 1;
  const SweepResult result = engine.run(tasks);
  EXPECT_EQ(result.cache_hits(), 1u);
  expect_each_once_in_order(tasks, result, state);
  EXPECT_FALSE(state.over_budget);
  if (host > 1) {
    EXPECT_GE(state.peak_tasks, 2u);
    EXPECT_GE(result.peak_tasks_in_flight, 2u);
  } else {
    EXPECT_EQ(result.peak_tasks_in_flight, 1u);
  }
  EXPECT_LE(result.peak_host_threads, 4u);
}

// Wide teams are not capped at the host's threads: two 4T runs at two
// workers still run at once, as they did before admission by width.
TEST(Admission, WideRunsStillFillEveryWorker) {
  const std::vector<RunTask> tasks = tasks_of_widths({4, 4, 4, 4});
  InFlight state;
  state.workers = 2;
  state.budget = std::min(2u * 4u, host_threads());
  state.meet = 2;
  Scheduler engine({.workers = 2});
  engine.set_task_runner(state.runner());

  const SweepResult result = engine.run(tasks);
  expect_each_once_in_order(tasks, result, state);
  EXPECT_EQ(result.peak_tasks_in_flight, 2u);
  EXPECT_EQ(result.peak_host_threads, 8u);
}

// A wide point queued among many narrow ones at one worker still runs.
TEST(Admission, WideTaskQueuedBehindNarrowOnesStillRuns) {
  std::vector<unsigned> widths(24, 1);
  widths.push_back(4);
  widths.insert(widths.end(), 8, 1);
  const std::vector<RunTask> tasks = tasks_of_widths(widths);
  InFlight state;
  state.workers = 1;
  state.budget = std::min(4u, host_threads());
  Scheduler engine({.workers = 1});
  engine.set_task_runner(state.runner());

  const SweepResult result = engine.run(tasks);
  expect_each_once_in_order(tasks, result, state);
  EXPECT_FALSE(state.over_budget);
}

/// Polls `done` for up to 5 s.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The paging-S shape (P = 2, W = 2, H = 4): four 1T runs fit at once, and
// a fifth waits until one leaves.
TEST(WidthGate, AdmitsNarrowRunsUpToTheBudget) {
  WidthGate gate(/*workers=*/2, /*widest=*/2, /*host_threads=*/4);
  EXPECT_EQ(gate.max_in_flight(), 4u);
  for (int i = 0; i < 4; ++i) gate.enter(1);
  EXPECT_EQ(gate.peak_tasks(), 4u);
  EXPECT_EQ(gate.peak_host_threads(), 4u);

  std::thread fifth([&] {
    gate.enter(1);
    gate.leave(1);
  });
  ASSERT_TRUE(eventually([&] { return gate.queued() == 1; }));
  gate.leave(1);
  fifth.join();
  EXPECT_EQ(gate.peak_tasks(), 4u);
  for (int i = 0; i < 3; ++i) gate.leave(1);
}

// The most runs at once: P, or one per budgeted host thread. The Figure-4
// default (P = H = 4, W = 8) keeps P; more workers than host threads keep
// P; a 1-worker 1T/2T sweep may pair its 1T runs.
TEST(WidthGate, MaxInFlightIsWorkersOrTheBudget) {
  EXPECT_EQ(WidthGate(4, 8, 4).max_in_flight(), 4u);
  EXPECT_EQ(WidthGate(8, 1, 4).max_in_flight(), 8u);
  EXPECT_EQ(WidthGate(1, 2, 4).max_in_flight(), 2u);
  EXPECT_EQ(WidthGate(1, 1, 4).max_in_flight(), 1u);
  EXPECT_EQ(WidthGate(2, 8, 1).max_in_flight(), 2u);
}

// A wide run waiting for a slot is not overtaken by a narrow run that
// arrived after it, even though the narrow one alone would fit.
TEST(WidthGate, WaitingWideRunIsNotOvertakenByLaterNarrowRuns) {
  WidthGate gate(/*workers=*/1, /*widest=*/2, /*host_threads=*/2);
  gate.enter(1);  // one run in flight: P reached, one host thread spare

  std::atomic<int> order{0};
  int wide_at = -1;
  int narrow_at = -1;
  std::thread wide([&] {
    gate.enter(2);  // 1 + 2 > 2: waits for the running run to leave
    wide_at = order++;
    gate.leave(2);
  });
  ASSERT_TRUE(eventually([&] { return gate.queued() == 1; }));
  std::thread narrow([&] {
    gate.enter(1);  // 1 + 1 <= 2 would fit, but the wide run came first
    narrow_at = order++;
    gate.leave(1);
  });
  ASSERT_TRUE(eventually([&] { return gate.queued() == 2; }));
  gate.leave(1);
  wide.join();
  narrow.join();
  EXPECT_EQ(wide_at, 0);
  EXPECT_EQ(narrow_at, 1);
}

TEST(Json, WriterEscapesAndNestsDeterministically) {
  JsonWriter w;
  w.begin_object();
  w.field("name", std::string("a\"b\\c\nd"));
  w.field("count", std::uint64_t{42});
  w.field("ratio", 0.5);
  w.field("flag", true);
  w.key("nested");
  w.begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":42,\"ratio\":0.5,"
            "\"flag\":true,\"nested\":[1,2]}");
  EXPECT_EQ(json_double(1.0 / 3.0), "0.33333333333333331");
}

TEST(Json, RecordRoundTripsItsDeterministicFields) {
  RunTask task;
  task.klass = npb::Klass::S;
  const RunRecord r = Scheduler::base_record(task);
  const std::string det = r.to_json(/*include_host=*/false);
  EXPECT_NE(det.find("\"kernel\":\"CG\""), std::string::npos);
  EXPECT_NE(det.find("\"key_digest\":\"" + digest_hex(cache_key(task)) + "\""),
            std::string::npos);
  EXPECT_EQ(det.find("wall_ms"), std::string::npos);
  const std::string host = r.to_json(/*include_host=*/true);
  EXPECT_NE(host.find("wall_ms"), std::string::npos);
}

// Every truncation and every single-bit flip of a valid record document
// either parses or throws JsonError — the contract the disk store's
// quarantine relies on. Any other exception, or a crash, fails the test.
TEST(RunRecordFuzz, TruncationsAndBitFlipsParseOrThrowJsonError) {
  RunTask task;
  task.klass = npb::Klass::S;
  task.threads = 2;
  RunRecord ok = Scheduler::base_record(task);
  ok.ok = true;
  ok.verified = true;
  ok.checksum = 1.0 / 3.0;
  ok.simulated_seconds = 0.25;
  ok.cycles = 123456789;
  ok.accesses = 987654321;
  ok.dtlb_walks_1g = 7;
  ok.pwc_hits = 11;
  ok.wall_ms = 3.5;
  RunRecord failed = Scheduler::base_record(task);
  failed.error = "boom \"quoted\"\n";

  for (const RunRecord& r : {ok, failed}) {
    const std::string doc = r.to_json(/*include_host=*/true);
    ASSERT_TRUE(RunRecord::from_json(doc).same_result(r));
    std::size_t parsed = 0;
    auto probe = [&parsed](const std::string& bytes) {
      try {
        RunRecord::from_json(bytes);
        ++parsed;
      } catch (const JsonError&) {
      }
    };
    for (std::size_t cut = 0; cut < doc.size(); ++cut) {
      probe(doc.substr(0, cut));
    }
    for (std::size_t off = 0; off < doc.size(); ++off) {
      for (unsigned bit = 0; bit < 8; ++bit) {
        std::string bad = doc;
        bad[off] = static_cast<char>(static_cast<unsigned char>(bad[off]) ^
                                     (1u << bit));
        probe(bad);
      }
    }
    // Some flips (a digit of a counter, whitespace) still parse.
    EXPECT_GT(parsed, 0u);

    // A thread count that does not fit `unsigned` is not truncated.
    std::string wide = doc;
    const std::size_t at = wide.find("\"threads\":2");
    ASSERT_NE(at, std::string::npos);
    wide.replace(at, 11, "\"threads\":4294967298");
    EXPECT_THROW(RunRecord::from_json(wide), JsonError);
  }
}

}  // namespace
}  // namespace lpomp::exec

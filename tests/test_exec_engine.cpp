// Tests for the parallel sweep scheduler: scheduling determinism (the
// same sweep on 1 worker and N workers yields identical results), the
// content-keyed result cache (hits, eviction, key sensitivity), failure
// isolation, and the JSON observability layer.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/scheduler.hpp"
#include "exec/json.hpp"

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

// The tentpole guarantee: worker count changes wall-clock behaviour only.
// Every deterministic field — simulated seconds, checksums, all counters —
// must be identical between a serial and a maximally parallel sweep.
TEST(Scheduler, OneWorkerAndManyWorkersAgreeExactly) {
  Scheduler serial({.workers = 1});
  Scheduler wide({.workers = 4});
  const SweepSpec spec = small_sweep();

  const SweepResult a = serial.run(spec);
  const SweepResult b = wide.run(spec);

  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(a.failed(), 0u);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_TRUE(a.records[i].same_result(b.records[i]))
        << "diverged at " << a.records[i].kernel << " "
        << a.records[i].threads << "T " << a.records[i].page_kind;
    EXPECT_TRUE(a.records[i].verified);
  }
  // The deterministic JSON projections are byte-identical too (this is
  // what `sweep_all --workers=1` vs `--workers=N` diffs).
  EXPECT_EQ(a.to_json(/*include_host=*/false),
            b.to_json(/*include_host=*/false));
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

}  // namespace
}  // namespace lpomp::exec

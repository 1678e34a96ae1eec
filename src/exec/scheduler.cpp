#include "exec/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "exec/json.hpp"
#include "prof/profile.hpp"

namespace lpomp::exec {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

ResultCache::Stats stats_delta(const ResultCache::Stats& after,
                               const ResultCache::Stats& before) {
  ResultCache::Stats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.insertions = after.insertions - before.insertions;
  d.evictions = after.evictions - before.evictions;
  return d;
}

DiskResultStore::Stats stats_delta(const DiskResultStore::Stats& after,
                                   const DiskResultStore::Stats& before) {
  DiskResultStore::Stats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.insertions = after.insertions - before.insertions;
  d.quarantined = after.quarantined - before.quarantined;
  d.bytes_read = after.bytes_read - before.bytes_read;
  d.bytes_written = after.bytes_written - before.bytes_written;
  d.write_errors = after.write_errors - before.write_errors;
  return d;
}

}  // namespace

std::size_t SweepResult::completed() const {
  std::size_t n = 0;
  for (const RunRecord& r : records) n += r.ok ? 1 : 0;
  return n;
}

std::size_t SweepResult::failed() const { return records.size() - completed(); }

std::size_t SweepResult::cache_hits() const {
  std::size_t n = 0;
  for (const RunRecord& r : records) n += r.cache_hit ? 1 : 0;
  return n;
}

std::size_t SweepResult::store_hits() const {
  std::size_t n = 0;
  for (const RunRecord& r : records) n += r.store_hit ? 1 : 0;
  return n;
}

double SweepResult::total_simulated_seconds() const {
  double s = 0.0;
  for (const RunRecord& r : records) s += r.simulated_seconds;
  return s;
}

const RunRecord* SweepResult::find(const std::string& kernel,
                                   const std::string& platform,
                                   unsigned threads,
                                   const std::string& page_kind) const {
  for (const RunRecord& r : records) {
    if (r.kernel == kernel && r.platform == platform && r.threads == threads &&
        r.page_kind == page_kind) {
      return &r;
    }
  }
  return nullptr;
}

const RunRecord* SweepResult::find(const std::string& kernel,
                                   const std::string& platform,
                                   unsigned threads,
                                   const std::string& page_kind,
                                   const std::string& paging) const {
  for (const RunRecord& r : records) {
    if (r.kernel == kernel && r.platform == platform && r.threads == threads &&
        r.page_kind == page_kind && r.paging == paging) {
      return &r;
    }
  }
  return nullptr;
}

std::string SweepResult::summary_json(bool include_host) const {
  JsonWriter w;
  w.begin_object();
  w.field("tasks", static_cast<std::uint64_t>(records.size()));
  w.field("completed", static_cast<std::uint64_t>(completed()));
  w.field("failed", static_cast<std::uint64_t>(failed()));
  w.field("total_simulated_seconds", total_simulated_seconds());
  if (include_host) {
    w.field("workers", workers);
    w.field("strategy", strategy_name(strategy));
    w.field("wall_ms", wall_ms);
    w.field("cache_hits", static_cast<std::uint64_t>(cache_hits()));
    w.field("cache_misses", cache.misses);
    w.field("cache_hit_rate",
            records.empty() ? 0.0
                            : static_cast<double>(cache_hits()) /
                                  static_cast<double>(records.size()));
    w.field("cache_evictions", cache.evictions);
    w.field("store_hits", static_cast<std::uint64_t>(store_hits()));
    w.field("store_misses", store.misses);
    w.field("store_insertions", store.insertions);
    w.field("store_quarantined", store.quarantined);
    w.field("store_bytes_read", store.bytes_read);
    w.field("store_bytes_written", store.bytes_written);
    w.field("peak_tasks_in_flight", peak_tasks_in_flight);
    w.field("peak_host_threads", peak_host_threads);
    w.field("shared_runs", static_cast<std::uint64_t>(shared_runs));
  }
  w.end_object();
  return w.str();
}

std::string SweepResult::to_json(bool include_host) const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "lpomp-sweep-v1");
  w.key("summary");
  w.raw(summary_json(include_host));
  w.key("runs");
  w.begin_array();
  for (const RunRecord& r : records) w.raw(r.to_json(include_host));
  w.end_array();
  w.end_object();
  return w.str();
}

Scheduler::Scheduler(Config config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity),
      workers_(config_.workers == 0 ? host_threads() : config_.workers) {
  if (!config_.store_dir.empty()) {
    disk_store_ = std::make_unique<DiskResultStore>(config_.store_dir);
  }
}

void Scheduler::set_task_runner(TaskRunner runner) {
  runner_ = std::move(runner);
}

std::optional<RunRecord> Scheduler::probe(const std::string& key) {
  if (std::optional<RunRecord> hit = cache_.lookup(key)) {
    hit->cache_hit = true;
    hit->store_hit = false;
    return hit;
  }
  if (disk_store_ != nullptr) {
    if (std::optional<RunRecord> hit = disk_store_->lookup(key)) {
      hit->cache_hit = false;
      hit->store_hit = true;
      cache_.insert(key, *hit);  // promote: repeat hits stay in memory
      return hit;
    }
  }
  return std::nullopt;
}

void Scheduler::commit(const std::string& key, const RunRecord& record) {
  cache_.insert(key, record);
  if (disk_store_ != nullptr) disk_store_->insert(key, record);
}

SweepResult Scheduler::run(const SweepSpec& spec, Strategy strategy) {
  return run(spec.expand(), strategy);
}

SweepResult Scheduler::run(const std::vector<RunTask>& tasks,
                           Strategy strategy) {
  const auto t0 = std::chrono::steady_clock::now();
  const ResultCache::Stats before = cache_.stats();
  const DiskResultStore::Stats store_before =
      disk_store_ != nullptr ? disk_store_->stats() : DiskResultStore::Stats{};

  SweepResult result;
  result.workers = workers_;
  result.strategy = strategy;
  result.records.resize(tasks.size());
  unsigned widest = 1;
  for (const RunTask& t : tasks) widest = std::max(widest, t.threads);
  WidthGate gate(workers_, widest, host_threads());

  // One task of each simulation key runs in the first round: the first
  // task that simulates it under its own key, or, when the grid has none,
  // the first task that takes it. The others wait for the second round,
  // when that run's record is in the cache, so which task runs does not
  // depend on where the policy list puts a derived policy.
  std::vector<std::string> keys(tasks.size());
  std::vector<std::optional<std::string>> shared(tasks.size());
  std::vector<std::size_t> first_round;
  std::vector<std::size_t> second_round;
  {
    std::unordered_set<std::string_view> canonical;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      keys[i] = cache_key(tasks[i]);
      shared[i] = shared_key(tasks[i]);
      if (!shared[i]) canonical.insert(keys[i]);
    }
    std::unordered_set<std::string_view> claimed;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const bool runs =
          shared[i] ? !canonical.contains(*shared[i]) &&
                          claimed.insert(*shared[i]).second
                    : claimed.insert(keys[i]).second;
      (runs ? first_round : second_round).push_back(i);
    }
  }
  std::atomic<std::size_t> shared_runs{0};
  // Each drainer takes the next index of the round and writes that task's
  // pre-assigned slot, so the result order is the task order whatever
  // thread runs it. Drainers beyond what the gate admits would only wait
  // in it; the calling thread is one of them. A round joins its drainers
  // before it returns.
  const auto run_round = [&](const std::vector<std::size_t>& round) {
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
      for (std::size_t j = next++; j < round.size(); j = next++) {
        const std::size_t i = round[j];
        result.records[i] =
            run_one(tasks[i], keys[i], shared[i], gate, shared_runs);
      }
    };
    const std::size_t drainers =
        std::min<std::size_t>(round.size(), gate.max_in_flight());
    std::vector<std::jthread> threads;
    for (std::size_t k = 1; k < drainers; ++k) threads.emplace_back(drain);
    drain();
  };
  run_round(first_round);
  run_round(second_round);
  result.shared_runs = shared_runs;
  result.peak_tasks_in_flight = gate.peak_tasks();
  result.peak_host_threads = gate.peak_host_threads();

  result.wall_ms = ms_since(t0);
  result.cache = stats_delta(cache_.stats(), before);
  if (disk_store_ != nullptr) {
    result.store = stats_delta(disk_store_->stats(), store_before);
  }
  return result;
}

RunRecord Scheduler::run_one(const RunTask& task, const std::string& key,
                             const std::optional<std::string>& shared,
                             WidthGate& gate,
                             std::atomic<std::size_t>& shared_runs) {
  auto t0 = std::chrono::steady_clock::now();
  if (std::optional<RunRecord> hit = probe(key)) {
    hit->wall_ms = ms_since(t0);
    return *hit;
  }
  if (shared) {
    if (std::optional<RunRecord> hit = probe(*shared)) {
      // The simulation's record differs from this task's only in the
      // policy name and the key digest.
      hit->paging = task.paging.name();
      hit->key_digest = digest_hex(key);
      hit->cache_hit = false;
      hit->store_hit = false;
      hit->wall_ms = ms_since(t0);
      commit(key, *hit);
      ++shared_runs;
      return *hit;
    }
  }
  // wall_ms covers the probe and the run, not the wait for admission.
  const double probe_ms = ms_since(t0);
  const unsigned width = std::max(1u, task.threads);
  gate.enter(width);
  t0 = std::chrono::steady_clock::now();
  RunRecord record;
  try {
    record = runner_(task);
  } catch (const std::exception& e) {
    record = base_record(task);
    record.ok = false;
    record.error = e.what();
  } catch (...) {
    record = base_record(task);
    record.ok = false;
    record.error = "unknown exception";
  }
  gate.leave(width);
  record.cache_hit = false;
  record.store_hit = false;
  record.wall_ms = probe_ms + ms_since(t0);
  if (record.ok) commit(key, record);
  return record;
}

RunRecord Scheduler::base_record(const RunTask& task) {
  RunRecord record;
  record.kernel = npb::kernel_name(task.kernel);
  record.klass = npb::klass_name(task.klass);
  record.platform = task.spec.name;
  record.threads = task.threads;
  record.page_kind = page_kind_name(task.page_kind);
  record.code_page_kind = page_kind_name(task.code_page_kind);
  record.paging = task.paging.name();
  record.seed = task.seed;
  record.key_digest = digest_hex(cache_key(task));
  return record;
}

RunRecord Scheduler::execute_task(const RunTask& task) {
  const npb::NpbResult r =
      npb::run_kernel(task.kernel, task.klass, task.runtime_config());

  RunRecord record = base_record(task);
  record.ok = true;
  record.verified = r.verified;
  record.checksum = r.checksum;
  record.simulated_seconds = r.simulated_seconds;
  for (const RecordCounter& c : kRecordCounters) {
    record.*c.member = r.profile.count(c.event);
  }
  return record;
}

}  // namespace lpomp::exec

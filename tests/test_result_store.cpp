// Disk-persistent result store: round-trip fidelity against the in-memory
// cache tier, corruption quarantine (truncated and bit-flipped records are
// a miss, never a crash), two-process writer races converging to one valid
// entry, fingerprint stability goldens, and the Scheduler's layered
// probe/commit (cold run populates disk; a fresh scheduler — the daemon
// restart case — serves the same grid from the store without simulating,
// a shared run's record included).
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "exec/disk_store.hpp"
#include "exec/fingerprint.hpp"
#include "exec/json.hpp"
#include "exec/result_cache.hpp"
#include "exec/scheduler.hpp"

using namespace lpomp;

namespace {

/// mkdtemp-backed store root, removed on scope exit.
struct TempDir {
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "lpomp-store-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

exec::RunTask sample_task(std::uint64_t seed = 0x1234) {
  exec::RunTask task;
  task.kernel = npb::Kernel::CG;
  task.klass = npb::Klass::S;
  task.spec = sim::ProcessorSpec::opteron270();
  task.threads = 2;
  task.page_kind = PageKind::large2m;
  task.code_page_kind = PageKind::small4k;
  task.seed = seed;
  return task;
}

/// The distinct non-zero value sample_record gives the i-th counter.
count_t sample_counter(std::size_t i) { return 1009 * (i + 1); }

/// A synthetic successful record with a distinctive value in every
/// deterministic field (each counter through kRecordCounters), so a round
/// trip that drops or swaps any field fails same_result().
exec::RunRecord sample_record(const exec::RunTask& task) {
  exec::RunRecord r = exec::Scheduler::base_record(task);
  r.ok = true;
  r.verified = true;
  r.checksum = 0.6252391;
  r.simulated_seconds = 1.5e-3;
  std::size_t i = 0;
  for (const exec::RecordCounter& c : exec::kRecordCounters) {
    r.*c.member = sample_counter(i++);
  }
  r.trace_source = "live";
  return r;
}

/// Removes `key` from a parsed JSON object; false when it was absent.
bool erase_member(exec::JsonValue& obj, const std::string& key) {
  return std::erase_if(obj.members,
                       [&](const auto& m) { return m.first == key; }) == 1;
}

void write_bytes(const std::filesystem::path& p, const std::string& bytes) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.good());
  os << bytes;
}

std::string read_bytes(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  EXPECT_TRUE(is.good());
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

std::size_t files_in(const std::filesystem::path& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    (void)e;
    ++n;
  }
  return n;
}

}  // namespace

// A record survives the disk round trip (including a fresh open of the same
// root, i.e. a different process's view) field-for-field, and matches what
// the in-memory cache tier returns for the same insert.
TEST(ResultStore, RoundTripMatchesMemoryTier) {
  TempDir dir;
  const exec::RunTask task = sample_task();
  const std::string key = exec::cache_key(task);
  const exec::RunRecord record = sample_record(task);

  exec::ResultCache cache(16);
  cache.insert(key, record);

  {
    exec::DiskResultStore store(dir.path);
    store.insert(key, record);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats().insertions, 1u);
    EXPECT_GT(store.stats().bytes_written, 0u);
  }

  // Reopen: the second instance only knows what the directory tells it.
  exec::DiskResultStore reopened(dir.path);
  EXPECT_EQ(reopened.size(), 1u);
  const std::optional<exec::RunRecord> from_disk = reopened.lookup(key);
  ASSERT_TRUE(from_disk.has_value());
  const std::optional<exec::RunRecord> from_cache = cache.lookup(key);
  ASSERT_TRUE(from_cache.has_value());

  EXPECT_TRUE(from_disk->same_result(record));
  EXPECT_TRUE(from_disk->same_result(*from_cache));
  // Each counter reads back its own value: a row that names another row's
  // member, or one from_json skips, fails here.
  std::size_t i = 0;
  for (const exec::RecordCounter& c : exec::kRecordCounters) {
    EXPECT_EQ((*from_disk).*c.member, sample_counter(i++)) << c.key;
  }
  // Deterministic JSON is byte-identical across the two tiers.
  EXPECT_EQ(from_disk->to_json(false), from_cache->to_json(false));
  EXPECT_EQ(from_disk->trace_source, record.trace_source);
  EXPECT_EQ(reopened.stats().hits, 1u);
  EXPECT_GT(reopened.stats().bytes_read, 0u);
  EXPECT_EQ(reopened.stats().quarantined, 0u);
}

// A record written before the paging overlay, the 1 GiB walk counter and
// the page-walk cache lacks those fields, and still parses: as native, 0
// and 0. Every other counter stays required.
TEST(ResultStore, RecordWithoutLaterFieldsParsesAsDefaults) {
  exec::RunRecord record = sample_record(sample_task());
  record.paging = "thp";
  exec::JsonValue doc = exec::json_parse(record.to_json(false));
  ASSERT_TRUE(erase_member(doc, "paging"));
  ASSERT_EQ(doc.members.back().first, "counters");
  exec::JsonValue& counters = doc.members.back().second;
  ASSERT_TRUE(erase_member(counters, "dtlb_walks_1g"));
  ASSERT_TRUE(erase_member(counters, "pwc_hits"));

  const exec::RunRecord old = exec::record_from_json_value(doc);
  EXPECT_EQ(old.paging, "native");
  EXPECT_EQ(old.dtlb_walks_1g, 0u);
  EXPECT_EQ(old.pwc_hits, 0u);
  record.paging = "native";
  record.dtlb_walks_1g = 0;
  record.pwc_hits = 0;
  EXPECT_TRUE(old.same_result(record));

  ASSERT_TRUE(erase_member(counters, "dtlb_walks_2m"));
  EXPECT_THROW(exec::record_from_json_value(doc), exec::JsonError);
}

// Failed runs are never persisted — the store only holds reusable results.
TEST(ResultStore, FailedRecordsNotPersisted) {
  TempDir dir;
  const exec::RunTask task = sample_task();
  exec::RunRecord record = sample_record(task);
  record.ok = false;
  record.error = "injected";

  exec::DiskResultStore store(dir.path);
  store.insert(exec::cache_key(task), record);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.stats().insertions, 0u);
  EXPECT_FALSE(store.lookup(exec::cache_key(task)).has_value());
}

// A truncated record file is quarantined (moved aside) and reported as a
// miss; the slot is immediately writable again.
TEST(ResultStore, TruncatedRecordQuarantined) {
  TempDir dir;
  const exec::RunTask task = sample_task();
  const std::string key = exec::cache_key(task);
  const std::string digest = exec::digest_hex(key);

  exec::DiskResultStore store(dir.path);
  store.insert(key, sample_record(task));
  const std::filesystem::path path = store.record_path(digest);
  const std::string bytes = read_bytes(path);
  write_bytes(path, bytes.substr(0, bytes.size() / 2));

  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.stats().quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(files_in(std::filesystem::path(dir.path) / "quarantine"), 1u);

  // A second lookup is a plain miss (nothing left to quarantine), and the
  // store recovers by re-inserting.
  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.stats().quarantined, 1u);
  store.insert(key, sample_record(task));
  EXPECT_TRUE(store.lookup(key).has_value());
}

// A single flipped byte in the payload fails the checksum line → quarantine,
// not a crash and never a wrong record.
TEST(ResultStore, BitFlippedRecordQuarantined) {
  TempDir dir;
  const exec::RunTask task = sample_task();
  const std::string key = exec::cache_key(task);

  exec::DiskResultStore store(dir.path);
  store.insert(key, sample_record(task));
  const std::filesystem::path path =
      store.record_path(exec::digest_hex(key));
  std::string bytes = read_bytes(path);
  bytes[bytes.size() / 2] ^= 0x20;  // flip one payload bit
  write_bytes(path, bytes);

  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.stats().quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
}

// A file that passes framing and checksum but stores a *different* canonical
// key (a simulated 64-bit digest collision) is a plain miss — the entry is
// left in place for its rightful owner, not quarantined, and above all not
// served as a wrong result.
TEST(ResultStore, DigestCollisionIsPlainMiss) {
  TempDir dir;
  const exec::RunTask task_a = sample_task(0x1234);
  const exec::RunTask task_b = sample_task(0x9999);
  const std::string key_a = exec::cache_key(task_a);
  const std::string key_b = exec::cache_key(task_b);
  ASSERT_NE(exec::digest_hex(key_a), exec::digest_hex(key_b));

  exec::DiskResultStore store(dir.path);
  store.insert(key_a, sample_record(task_a));
  // Plant a byte-for-byte copy of key_a's (internally valid) file where
  // key_b's record would live.
  const std::string bytes = read_bytes(store.record_path(exec::digest_hex(key_a)));
  write_bytes(store.record_path(exec::digest_hex(key_b)), bytes);

  exec::DiskResultStore reader(dir.path);
  EXPECT_FALSE(reader.lookup(key_b).has_value());
  EXPECT_EQ(reader.stats().quarantined, 0u);
  EXPECT_TRUE(
      std::filesystem::exists(reader.record_path(exec::digest_hex(key_b))));
  // The rightful entry still serves.
  EXPECT_TRUE(reader.lookup(key_a).has_value());
}

// Two processes inserting the same key concurrently (the atomic-rename
// protocol's worst case) converge to exactly one valid, servable entry.
TEST(ResultStore, TwoWriterProcessRaceConverges) {
  TempDir dir;
  const exec::RunTask task = sample_task();
  const std::string key = exec::cache_key(task);
  const exec::RunRecord record = sample_record(task);

  pid_t pids[2];
  for (pid_t& pid : pids) {
    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: hammer the same key; _exit so gtest state is untouched.
      try {
        exec::DiskResultStore store(dir.path);
        for (int i = 0; i < 50; ++i) store.insert(key, record);
        ::_exit(store.stats().write_errors == 0 ? 0 : 3);
      } catch (...) {
        ::_exit(2);
      }
    }
  }
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "writer child failed: " << status;
  }

  exec::DiskResultStore store(dir.path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(files_in(std::filesystem::path(dir.path) / "records"), 1u);
  const std::optional<exec::RunRecord> hit = store.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->same_result(record));
  EXPECT_EQ(store.stats().quarantined, 0u);
}

// Fingerprint goldens: the content addressing the store's file names and
// checksums are built on must never drift silently — a change here orphans
// every existing store directory.
TEST(ResultStore, FingerprintGolden) {
  // FNV-1a 64 reference vectors.
  EXPECT_EQ(exec::digest64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(exec::digest64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(exec::digest_hex(""), "cbf29ce484222325");

  // The canonical key prefix for a fixed task (full key pins spec + cost
  // serialisation; the prefix is the stable, human-checkable part).
  const exec::RunTask task = sample_task(1234);
  const std::string key = exec::cache_key(task);
  EXPECT_EQ(key.rfind("lpomp-run-v1{kernel=CG;klass=S;threads=2;"
                      "page_kind=2MB;code_page_kind=4KB;seed=1234;",
                      0),
            0u)
      << key;
  // Golden digest of the full key for the default Opteron spec and cost
  // model. If this changes, existing store directories stop matching:
  // bump the store magic alongside any deliberate key change.
  EXPECT_EQ(exec::digest_hex(key), "37d46903f050cc80") << key;
}

// The Scheduler's layered probe/commit end to end: a cold sweep populates
// the disk store, a *fresh* scheduler on the same root (the daemon-restart
// case) serves the whole grid from disk without running a single task, and
// a repeat on that scheduler is pure LRU (promoted entries never touch disk
// again). Deterministic JSON is byte-identical throughout.
TEST(ResultStore, SchedulerServesAcrossInstancesFromStore) {
  TempDir dir;
  std::vector<exec::RunTask> tasks;
  for (unsigned threads : {1u, 2u, 4u}) {
    exec::RunTask task = sample_task(0xabc + threads);
    task.threads = threads;
    tasks.push_back(task);
  }

  exec::Scheduler::Config cfg;
  cfg.workers = 2;
  cfg.store_dir = dir.path;

  std::atomic<int> executed{0};
  const exec::Scheduler::TaskRunner runner =
      [&executed](const exec::RunTask& task) {
        ++executed;
        return sample_record(task);
      };

  exec::Scheduler cold(cfg);
  cold.set_task_runner(runner);
  const exec::SweepResult first = cold.run(tasks);
  EXPECT_EQ(executed.load(), 3);
  EXPECT_EQ(first.completed(), 3u);
  EXPECT_EQ(first.store_hits(), 0u);
  EXPECT_EQ(first.store.insertions, 3u);
  ASSERT_NE(cold.disk_store(), nullptr);
  EXPECT_EQ(cold.disk_store()->size(), 3u);

  // Fresh scheduler, same root: everything comes from disk.
  exec::Scheduler warm(cfg);
  warm.set_task_runner(runner);
  const exec::SweepResult second = warm.run(tasks);
  EXPECT_EQ(executed.load(), 3);  // nothing re-ran
  EXPECT_EQ(second.store_hits(), 3u);
  EXPECT_EQ(second.cache_hits(), 0u);
  EXPECT_EQ(second.store.hits, 3u);
  EXPECT_EQ(second.to_json(false), first.to_json(false));
  for (const exec::RunRecord& r : second.records) {
    EXPECT_TRUE(r.store_hit);
    EXPECT_FALSE(r.cache_hit);
  }

  // Same scheduler again: disk hits were promoted into the LRU.
  const exec::SweepResult third = warm.run(tasks);
  EXPECT_EQ(executed.load(), 3);
  EXPECT_EQ(third.cache_hits(), 3u);
  EXPECT_EQ(third.store_hits(), 0u);
  EXPECT_EQ(third.store.hits, 0u);  // no disk I/O on the warm path
  EXPECT_EQ(third.to_json(false), first.to_json(false));
}

// A base4k task on 4 KB pages takes its native point's run and commits it
// under its own key, so a fresh scheduler on the same root serves both
// records from disk.
TEST(ResultStore, SharedRunsAreServedFromStoreUnderTheirOwnKeys) {
  TempDir dir;
  std::vector<exec::RunTask> tasks;
  for (const paging::Policy p :
       {paging::Policy::native, paging::Policy::base4k}) {
    exec::RunTask task = sample_task();
    task.page_kind = PageKind::small4k;
    task.paging.policy = p;
    tasks.push_back(task);
  }
  exec::Scheduler::Config cfg;
  cfg.workers = 2;
  cfg.store_dir = dir.path;
  std::atomic<int> executed{0};
  const exec::Scheduler::TaskRunner runner =
      [&executed](const exec::RunTask& task) {
        ++executed;
        return sample_record(task);
      };

  exec::Scheduler cold(cfg);
  cold.set_task_runner(runner);
  const exec::SweepResult first = cold.run(tasks);
  EXPECT_EQ(executed.load(), 1);
  EXPECT_EQ(first.shared_runs, 1u);
  EXPECT_EQ(cold.disk_store()->size(), 2u);

  exec::Scheduler warm(cfg);
  warm.set_task_runner(runner);
  const exec::SweepResult second = warm.run(tasks);
  EXPECT_EQ(executed.load(), 1);
  EXPECT_EQ(second.store_hits(), 2u);
  EXPECT_EQ(second.shared_runs, 0u);
  EXPECT_EQ(second.to_json(false), first.to_json(false));
}

// Without store_dir the scheduler has no disk tier — the historical
// in-memory behaviour is unchanged.
TEST(ResultStore, NoStoreDirMeansNoDiskTier) {
  exec::Scheduler sched{exec::Scheduler::Config{}};
  EXPECT_EQ(sched.disk_store(), nullptr);
}

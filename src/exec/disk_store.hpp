// Disk-persistent, content-addressed result store.
//
// The second tier under the in-memory LRU ResultCache: RunRecords survive
// the process, so a sweep daemon restart — or a completely separate
// process — serves previously computed grid points from disk instead of
// re-simulating them. Warm entries promote into the LRU, so repeated hits
// never touch disk again.
//
// Content addressing reuses exec::fingerprint verbatim: the file name is
// digest_hex(cache_key(task)) and the full canonical key is stored inside
// the file, so a (astronomically unlikely) digest collision reads as a
// miss, never as a wrong record.
//
// On-disk layout under the root directory:
//
//   records/<digest>.json   one record per file:
//                             line 1: "lpomp-store-v1 <digest-of-payload>"
//                             rest:   {"key":"<canonical key>","record":{...}}
//   quarantine/             corrupt entries are moved here on load failure
//                           (bad checksum, truncation, malformed JSON) and
//                           counted — never a crash, never served
//
// Writes are atomic: a record is serialised to a temp file in records/ and
// rename(2)d into place, so a reader (or a second writer process racing on
// the same key) only ever observes a complete, checksummed file; racing
// writers converge to one valid entry because both write byte-identical
// content under the same name.
//
// Thread-safe; cross-process safety comes from the atomic-rename protocol,
// not from any lock — there is deliberately no lock file to leak.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>

#include "exec/record.hpp"

namespace lpomp::exec {

class DiskResultStore {
 public:
  /// Opens (creating directories as needed) the store rooted at `root` and
  /// lists the records already on disk. Throws std::runtime_error when the
  /// root cannot be created.
  explicit DiskResultStore(std::string root);

  DiskResultStore(const DiskResultStore&) = delete;
  DiskResultStore& operator=(const DiskResultStore&) = delete;

  /// Returns the record stored for the exact canonical `key`, or nullopt.
  /// A file that fails the checksum, fails to parse, or stores a different
  /// key under the same digest is quarantined (moved aside) and reported
  /// as a miss. The returned record's host metadata is as stored; the
  /// caller stamps its own hit provenance.
  std::optional<RunRecord> lookup(const std::string& key);

  /// Persists `record` under `key` (atomic write-rename). Failed runs are
  /// not persisted — like the LRU, the store only holds results worth
  /// reusing.
  void insert(const std::string& key, const RunRecord& record);

  /// Entries currently known on disk (scanned at open, tracked since).
  std::size_t size() const;

  const std::string& root() const { return root_; }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t quarantined = 0;   ///< corrupt entries moved aside
    std::uint64_t bytes_read = 0;    ///< record bytes served from disk
    std::uint64_t bytes_written = 0; ///< record bytes persisted
    std::uint64_t write_errors = 0;  ///< inserts that could not be persisted
  };
  Stats stats() const;

  /// File the record for `digest` lives at (exists or not) — used by tests
  /// to corrupt entries deliberately.
  std::filesystem::path record_path(const std::string& digest) const;

 private:
  void quarantine_locked(const std::filesystem::path& file);

  std::string root_;
  std::filesystem::path records_dir_;
  std::filesystem::path quarantine_dir_;

  mutable std::mutex mutex_;
  std::unordered_set<std::string> digests_;  ///< known entries (by digest)
  std::uint64_t quarantine_seq_ = 0;
  Stats stats_;
};

}  // namespace lpomp::exec

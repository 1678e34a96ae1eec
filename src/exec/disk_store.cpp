#include "exec/disk_store.hpp"

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "exec/fingerprint.hpp"
#include "exec/json.hpp"

namespace lpomp::exec {
namespace {

constexpr const char kMagic[] = "lpomp-store-v1";
constexpr std::size_t kDigestHexLen = 16;

/// Whole-file read; nullopt when the file cannot be opened (absent, or
/// concurrently quarantined by another thread).
std::optional<std::string> read_file(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  if (!is.good() && !is.eof()) return std::nullopt;
  return buf.str();
}

/// True when `name` looks like a record file name: 16 hex digits + ".json".
bool is_record_name(std::string_view name) {
  if (name.size() != kDigestHexLen + 5) return false;
  if (name.compare(kDigestHexLen, 5, ".json") != 0) return false;
  for (std::size_t i = 0; i < kDigestHexLen; ++i) {
    const char c = name[i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

}  // namespace

DiskResultStore::DiskResultStore(std::string root)
    : root_(std::move(root)),
      records_dir_(std::filesystem::path(root_) / "records"),
      quarantine_dir_(std::filesystem::path(root_) / "quarantine") {
  std::error_code ec;
  std::filesystem::create_directories(records_dir_, ec);
  std::filesystem::create_directories(quarantine_dir_, ec);
  if (!std::filesystem::is_directory(records_dir_) ||
      !std::filesystem::is_directory(quarantine_dir_)) {
    throw std::runtime_error("DiskResultStore: cannot create store root '" +
                             root_ + "'");
  }
  // Known entries: one readdir pass over records/ (plain readdir, not
  // std::filesystem::directory_iterator, which costs a path object per
  // entry — a restarted daemon's open time grows with the store).
  std::lock_guard lock(mutex_);
  if (DIR* dir = ::opendir(records_dir_.c_str())) {
    while (const dirent* entry = ::readdir(dir)) {
      const std::string_view name(entry->d_name);
      if (is_record_name(name)) digests_.emplace(name.substr(0, kDigestHexLen));
    }
    ::closedir(dir);
  }
}

std::filesystem::path DiskResultStore::record_path(
    const std::string& digest) const {
  return records_dir_ / (digest + ".json");
}

void DiskResultStore::quarantine_locked(const std::filesystem::path& file) {
  const std::filesystem::path dest =
      quarantine_dir_ / (file.filename().string() + "." +
                         std::to_string(::getpid()) + "." +
                         std::to_string(quarantine_seq_++));
  std::error_code ec;
  std::filesystem::rename(file, dest, ec);
  if (ec) std::filesystem::remove(file, ec);
  ++stats_.quarantined;
}

std::optional<RunRecord> DiskResultStore::lookup(const std::string& key) {
  const std::string digest = digest_hex(key);
  const std::filesystem::path path = record_path(digest);

  std::lock_guard lock(mutex_);
  const std::optional<std::string> content = read_file(path);
  if (!content) {
    ++stats_.misses;
    return std::nullopt;
  }

  // Frame: "lpomp-store-v1 <digest-of-payload>\n<payload>". Any framing or
  // checksum failure is corruption: quarantine and miss.
  const std::size_t header_len = sizeof(kMagic) - 1 + 1 + kDigestHexLen + 1;
  bool framed = content->size() > header_len &&
                content->compare(0, sizeof(kMagic) - 1, kMagic) == 0 &&
                (*content)[sizeof(kMagic) - 1] == ' ' &&
                (*content)[header_len - 1] == '\n';
  std::string payload;
  if (framed) {
    const std::string stored_sum =
        content->substr(sizeof(kMagic), kDigestHexLen);
    payload = content->substr(header_len);
    framed = stored_sum == digest_hex(payload);
  }
  if (!framed) {
    quarantine_locked(path);
    ++stats_.misses;
    return std::nullopt;
  }

  try {
    const JsonValue doc = json_parse(payload);
    if (doc.at("key").as_string() != key) {
      // Valid file, different canonical key under the same digest: a true
      // content-hash collision. Not corruption — leave the entry for its
      // rightful owner and miss.
      ++stats_.misses;
      return std::nullopt;
    }
    RunRecord record = record_from_json_value(doc.at("record"));
    ++stats_.hits;
    stats_.bytes_read += content->size();
    return record;
  } catch (const JsonError&) {
    quarantine_locked(path);
    ++stats_.misses;
    return std::nullopt;
  }
}

void DiskResultStore::insert(const std::string& key, const RunRecord& record) {
  if (!record.ok) return;

  JsonWriter w;
  w.begin_object();
  w.field("key", key);
  w.key("record");
  w.raw(record.to_json(/*include_host=*/true));
  w.end_object();
  const std::string& payload = w.str();

  std::string content;
  content.reserve(payload.size() + 40);
  content += kMagic;
  content += ' ';
  content += digest_hex(payload);
  content += '\n';
  content += payload;

  const std::string digest = digest_hex(key);
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::filesystem::path tmp =
      records_dir_ / (".tmp-" + digest + "-" + std::to_string(::getpid()) +
                      "-" + std::to_string(tmp_seq.fetch_add(1)));

  std::lock_guard lock(mutex_);
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os || !(os << content) || (os.flush(), !os)) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      ++stats_.write_errors;
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, record_path(digest), ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    ++stats_.write_errors;
    return;
  }
  ++stats_.insertions;
  stats_.bytes_written += content.size();
  digests_.insert(digest);
}

std::size_t DiskResultStore::size() const {
  std::lock_guard lock(mutex_);
  return digests_.size();
}

DiskResultStore::Stats DiskResultStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace lpomp::exec

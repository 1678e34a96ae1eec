#include "serve/ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <new>

namespace lpomp::serve {
namespace {

// Headers live on their own cache lines so client CAS traffic on one slot
// never false-shares with another slot or with the ring header.
constexpr std::size_t kLine = 64;
static_assert(sizeof(RingHeader) <= kLine, "RingHeader exceeds a line");
static_assert(sizeof(SlotHeader) <= kLine, "SlotHeader exceeds a line");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free &&
                  std::atomic<std::uint64_t>::is_always_lock_free,
              "ring atomics must be lock-free to live in shared memory");

std::size_t ring_bytes(std::uint32_t slots, std::size_t slot_bytes) {
  return kLine + static_cast<std::size_t>(slots) * kLine +
         static_cast<std::size_t>(slots) * slot_bytes;
}

[[noreturn]] void fail(const std::string& what) {
  throw RingError(what + ": " + std::strerror(errno));
}

}  // namespace

ShmRing ShmRing::create(const std::string& name, std::uint32_t slots,
                        std::size_t slot_bytes) {
  if (slots == 0 || slot_bytes < 4096) {
    throw RingError("ShmRing::create: need at least 1 slot of >= 4096 bytes");
  }
  // Replace any stale segment (a previous daemon that died without cleanup)
  // so creation is idempotent for the operator.
  ::shm_unlink(name.c_str());
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) fail("shm_open('" + name + "')");
  const std::size_t bytes = ring_bytes(slots, slot_bytes);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    ::shm_unlink(name.c_str());
    fail("ftruncate('" + name + "')");
  }
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    fail("mmap('" + name + "')");
  }

  // The segment is zero-filled; placement-new gives the atomics their
  // proper lifetime (zero bits are the right initial values anyway).
  RingHeader* header = new (base) RingHeader;
  header->slots = slots;
  header->slot_bytes = slot_bytes;
  for (std::uint32_t i = 0; i < slots; ++i) {
    new (static_cast<char*>(base) + kLine +
         static_cast<std::size_t>(i) * kLine) SlotHeader;
  }
  header->version = kVersion;
  // Publish the magic last: a client that maps a half-initialised segment
  // sees magic==0 and reports "not a ring" instead of garbage geometry.
  std::atomic_thread_fence(std::memory_order_release);
  header->magic = kMagic;

  return ShmRing(name, base, bytes, slots, slot_bytes, /*owner=*/true);
}

ShmRing ShmRing::open(const std::string& name) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) fail("shm_open('" + name + "')");

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail("fstat('" + name + "')");
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  if (bytes < kLine) {
    ::close(fd);
    throw RingError("ShmRing::open('" + name + "'): segment too small");
  }
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) fail("mmap('" + name + "')");

  // Read the geometry once: the values validated are the values used.
  const RingHeader* header = static_cast<const RingHeader*>(base);
  const std::uint32_t slots = header->slots;
  const std::uint64_t slot_bytes = header->slot_bytes;
  // Division form of bytes >= ring_bytes(slots, slot_bytes): a hostile
  // header cannot overflow it.
  if (header->magic != kMagic || header->version != kVersion || slots == 0 ||
      slot_bytes > bytes ||
      (bytes - kLine) / (kLine + slot_bytes) < slots) {
    ::munmap(base, bytes);
    throw RingError("ShmRing::open('" + name +
                    "'): not a compatible lpomp sweep ring");
  }
  return ShmRing(name, base, bytes, slots,
                 static_cast<std::size_t>(slot_bytes), /*owner=*/false);
}

ShmRing::ShmRing(ShmRing&& other) noexcept
    : name_(std::move(other.name_)),
      base_(other.base_),
      bytes_(other.bytes_),
      slots_(other.slots_),
      slot_bytes_(other.slot_bytes_),
      owner_(other.owner_) {
  other.base_ = nullptr;
  other.owner_ = false;
}

ShmRing& ShmRing::operator=(ShmRing&& other) noexcept {
  if (this != &other) {
    this->~ShmRing();
    new (this) ShmRing(std::move(other));
  }
  return *this;
}

ShmRing::~ShmRing() {
  if (base_ != nullptr) ::munmap(base_, bytes_);
  if (owner_) ::shm_unlink(name_.c_str());
  base_ = nullptr;
}

RingHeader* ShmRing::header() const {
  return static_cast<RingHeader*>(base_);
}

SlotHeader* ShmRing::slot(std::uint32_t i) const {
  return reinterpret_cast<SlotHeader*>(static_cast<char*>(base_) + kLine +
                                       static_cast<std::size_t>(i) * kLine);
}

char* ShmRing::payload(std::uint32_t i) const {
  return static_cast<char*>(base_) + kLine +
         static_cast<std::size_t>(slots()) * kLine +
         static_cast<std::size_t>(i) * slot_bytes();
}

}  // namespace lpomp::serve

// POSIX shared-memory request/response ring for the sweep service.
//
// One daemon and N client processes share a fixed-layout segment:
//
//   [RingHeader | SlotHeader × slots | payload × slots]
//
// with every header padded to a cache line. Each slot is a complete
// rendezvous: a client CAS-claims a Free slot, writes its request into the
// slot's payload, publishes it (state → Request, release), and polls for
// the daemon's answer; the daemon scans for Request slots, processes them
// (state → Busy), writes the response into the same payload and publishes
// (state → Response); the client reads it and frees the slot. All
// coordination is lock-free atomics inside the mapping — no futexes, no
// fds passed around, and a crashed client can never wedge the daemon (its
// slot just stays claimed until the segment is recreated).
//
// The fixed slot count doubles as the admission bound: with every slot
// occupied, a new submission waits in the client's claim loop (with a
// deadline), not in an unbounded daemon-side queue. The header counts the
// peak number of simultaneously pending requests so the telemetry shows
// how close the ring came to saturation.
//
// The segment is created (and unlinked) by the daemon; clients open it
// read-write and allocate themselves an id from the header. The magic and
// version fields make a stale segment from an older build an explicit
// error instead of a corrupt conversation. Each side reads the geometry
// (slot count and size) once, at create/open, and keeps a private copy:
// another process rewriting the header cannot move this side's slot and
// payload addresses.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace lpomp::serve {

/// Shared-memory setup/teardown failure (shm_open, mmap, bad geometry,
/// magic/version mismatch).
class RingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Slot lifecycle. Only the transitions named here occur:
/// Free →(client CAS)→ Claimed →(client publish)→ Request →(daemon)→
/// Busy →(daemon publish)→ Response →(client)→ Free.
enum SlotState : std::uint32_t {
  kSlotFree = 0,
  kSlotClaimed = 1,
  kSlotRequest = 2,
  kSlotBusy = 3,
  kSlotResponse = 4,
};

struct RingHeader {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t slots = 0;
  std::uint64_t slot_bytes = 0;
  /// 1 while the daemon is serving; 0 once it shuts down. Clients poll
  /// this so a dead daemon turns into a clean error, not a hang.
  std::atomic<std::uint32_t> alive{0};
  /// Client-id allocator (fetch_add; id 0 is never handed out).
  std::atomic<std::uint32_t> next_client{0};
  /// Peak simultaneously-pending requests seen by the daemon's scan.
  std::atomic<std::uint32_t> queue_depth_peak{0};
  std::atomic<std::uint64_t> requests{0};   ///< total served
  std::atomic<std::uint64_t> responses{0};  ///< total answered (incl. errors)
};

struct SlotHeader {
  std::atomic<std::uint32_t> state{kSlotFree};
  std::uint32_t client_id = 0;
  std::uint64_t sequence = 0;       ///< client-local, for debugging
  std::uint32_t request_bytes = 0;
  std::uint32_t response_bytes = 0;
  /// 0 = ok; 1 = error (response payload is the error document).
  std::uint32_t status = 0;
};

class ShmRing {
 public:
  static constexpr std::uint64_t kMagic = 0x6c706f6d702d7372ULL;  // "lpomp-sr"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::uint32_t kDefaultSlots = 8;
  static constexpr std::size_t kDefaultSlotBytes = std::size_t{1} << 20;

  /// Daemon side: creates (replacing any stale segment of the same name)
  /// and maps the ring, and takes ownership — the destructor unlinks it.
  /// `name` is a POSIX shm name ("/lpomp-sweep").
  static ShmRing create(const std::string& name, std::uint32_t slots,
                        std::size_t slot_bytes);

  /// Client side: maps an existing ring. Throws RingError when the segment
  /// is absent or its magic/version/geometry disagree with this build.
  static ShmRing open(const std::string& name);

  ShmRing() = default;
  ShmRing(ShmRing&& other) noexcept;
  ShmRing& operator=(ShmRing&& other) noexcept;
  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;
  ~ShmRing();

  bool valid() const { return base_ != nullptr; }
  const std::string& name() const { return name_; }
  std::uint32_t slots() const { return slots_; }
  std::size_t slot_bytes() const { return slot_bytes_; }

  RingHeader* header() const;
  SlotHeader* slot(std::uint32_t i) const;
  char* payload(std::uint32_t i) const;

 private:
  ShmRing(std::string name, void* base, std::size_t bytes,
          std::uint32_t slots, std::size_t slot_bytes, bool owner)
      : name_(std::move(name)),
        base_(base),
        bytes_(bytes),
        slots_(slots),
        slot_bytes_(slot_bytes),
        owner_(owner) {}

  std::string name_;
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  std::uint32_t slots_ = 0;      ///< geometry as validated at create/open
  std::size_t slot_bytes_ = 0;
  bool owner_ = false;  ///< creator unlinks the segment on destruction
};

}  // namespace lpomp::serve

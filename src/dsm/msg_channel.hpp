// Intra-node shared-memory message passing, as described in §3.3
// "Intra-node Communication": the paper replaces Omni/SCASH's SCore/Myrinet
// transport with a memory-mapped mailbox file — small messages (≤1 KB), up
// to 32 outstanding between a pair of processes, one copy on the send side,
// and the receiver reads the buffer in place before releasing it.
//
// Here the "processes" are the runtime's threads, and the mailbox lives in
// process memory; the protocol (flag-based SPSC rings, single copy,
// in-place receive) is the same. A blocked send or receive waits with
// core::Team::yield(): it lets the team's next fiber run, or yields the
// host thread outside a team. mpi::Communicator owns one per world and
// carries its headers and flow control over it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "support/error.hpp"

namespace lpomp::dsm {

class MsgChannel {
 public:
  /// Mirrors the paper's implementation limits.
  static constexpr std::size_t kSlotsPerPair = 32;
  static constexpr std::size_t kMaxMessage = 1024;

  explicit MsgChannel(unsigned participants);

  MsgChannel(const MsgChannel&) = delete;
  MsgChannel& operator=(const MsgChannel&) = delete;

  unsigned participants() const { return nprocs_; }

  /// Copies `len` bytes into the next free slot of the (from → to) ring.
  /// Returns false when all 32 slots are in flight.
  bool try_send(unsigned from, unsigned to, const void* data, std::size_t len);

  /// Blocking send: waits (core::Team::yield) until a slot frees up.
  void send(unsigned from, unsigned to, const void* data, std::size_t len);

  /// A received message, readable in place; releasing frees the slot for the
  /// sender. Movable, non-copyable, releases on destruction.
  class Received {
   public:
    Received() = default;
    Received(Received&& o) noexcept { *this = std::move(o); }
    Received& operator=(Received&& o) noexcept;
    ~Received() { release(); }

    const std::byte* data() const { return data_; }
    std::size_t size() const { return size_; }
    void release();

   private:
    friend class MsgChannel;
    const std::byte* data_ = nullptr;
    std::size_t size_ = 0;
    std::atomic<unsigned>* full_flag_ = nullptr;
  };

  /// Non-blocking receive of the oldest in-flight message from `from` to
  /// `to`; empty optional if none is pending.
  std::optional<Received> try_recv(unsigned to, unsigned from);

  /// Blocking receive.
  Received recv(unsigned to, unsigned from);

  /// Convenience: blocking receive of a POD value.
  template <typename T>
  T recv_value(unsigned to, unsigned from) {
    static_assert(std::is_trivially_copyable_v<T>);
    Received msg = recv(to, from);
    LPOMP_CHECK(msg.size() == sizeof(T));
    T value;
    std::memcpy(&value, msg.data(), sizeof(T));
    return value;
  }

  template <typename T>
  void send_value(unsigned from, unsigned to, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(from, to, &value, sizeof(T));
  }

  /// Messages successfully sent so far (all pairs).
  std::uint64_t messages_sent() const {
    return sent_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<unsigned> full{0};  // 0 = free, 1 = occupied
    std::uint32_t len = 0;
    std::byte buf[kMaxMessage];
  };
  struct alignas(64) Ring {
    std::unique_ptr<Slot[]> slots{new Slot[kSlotsPerPair]};
    // Producer and consumer cursors; each is touched by one side only.
    std::atomic<std::size_t> head{0};  // next slot the sender fills
    std::atomic<std::size_t> tail{0};  // next slot the receiver drains
  };

  Ring& ring(unsigned from, unsigned to) {
    LPOMP_CHECK(from < nprocs_ && to < nprocs_);
    return rings_[static_cast<std::size_t>(from) * nprocs_ + to];
  }

  unsigned nprocs_;
  std::vector<Ring> rings_;
  std::atomic<std::uint64_t> sent_{0};
};

}  // namespace lpomp::dsm

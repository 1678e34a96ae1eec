#include "dsm/msg_channel.hpp"

#include "core/team.hpp"

namespace lpomp::dsm {

MsgChannel::MsgChannel(unsigned participants) : nprocs_(participants) {
  LPOMP_CHECK_MSG(participants >= 1, "channel needs at least one participant");
  rings_ = std::vector<Ring>(static_cast<std::size_t>(nprocs_) * nprocs_);
}

bool MsgChannel::try_send(unsigned from, unsigned to, const void* data,
                          std::size_t len) {
  LPOMP_CHECK_MSG(len <= kMaxMessage, "message exceeds 1 KB channel limit");
  Ring& r = ring(from, to);
  const std::size_t head = r.head.load(std::memory_order_relaxed);
  Slot& slot = r.slots[head % kSlotsPerPair];
  if (slot.full.load(std::memory_order_acquire) != 0) {
    return false;  // 32 messages already in flight
  }
  std::memcpy(slot.buf, data, len);  // the single copy
  slot.len = static_cast<std::uint32_t>(len);
  slot.full.store(1, std::memory_order_release);
  r.head.store(head + 1, std::memory_order_relaxed);
  sent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void MsgChannel::send(unsigned from, unsigned to, const void* data,
                      std::size_t len) {
  while (!try_send(from, to, data, len)) core::Team::yield();
}

MsgChannel::Received& MsgChannel::Received::operator=(Received&& o) noexcept {
  if (this != &o) {
    release();
    data_ = o.data_;
    size_ = o.size_;
    full_flag_ = o.full_flag_;
    o.data_ = nullptr;
    o.size_ = 0;
    o.full_flag_ = nullptr;
  }
  return *this;
}

void MsgChannel::Received::release() {
  if (full_flag_ != nullptr) {
    full_flag_->store(0, std::memory_order_release);
    full_flag_ = nullptr;
    data_ = nullptr;
    size_ = 0;
  }
}

std::optional<MsgChannel::Received> MsgChannel::try_recv(unsigned to,
                                                         unsigned from) {
  Ring& r = ring(from, to);
  const std::size_t tail = r.tail.load(std::memory_order_relaxed);
  Slot& slot = r.slots[tail % kSlotsPerPair];
  if (slot.full.load(std::memory_order_acquire) == 0) {
    return std::nullopt;
  }
  Received msg;
  msg.data_ = slot.buf;
  msg.size_ = slot.len;
  msg.full_flag_ = &slot.full;
  r.tail.store(tail + 1, std::memory_order_relaxed);
  return msg;
}

MsgChannel::Received MsgChannel::recv(unsigned to, unsigned from) {
  while (true) {
    if (auto msg = try_recv(to, from)) return std::move(*msg);
    core::Team::yield();
  }
}

}  // namespace lpomp::dsm

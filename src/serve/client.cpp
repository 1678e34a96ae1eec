#include "serve/client.hpp"

#include <cstring>
#include <thread>

#include "exec/json.hpp"

namespace lpomp::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Brief spin, then short sleeps: the daemon's store-hit turnaround is tens
/// of microseconds, so the spin usually catches it; the sleep keeps a
/// long-running cold sweep from burning a client core.
void backoff(unsigned& spins) {
  if (++spins < 2000) return;
  std::this_thread::sleep_for(std::chrono::microseconds(50));
}

}  // namespace

SweepClient::SweepClient(const std::string& shm_name)
    : ring_(ShmRing::open(shm_name)) {
  client_id_ =
      ring_.header()->next_client.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::string SweepClient::submit(const SweepRequest& request,
                                std::chrono::milliseconds deadline) {
  return round_trip(encode_request(request), deadline);
}

std::string SweepClient::stats(std::chrono::milliseconds deadline) {
  return round_trip(encode_stats_request(), deadline);
}

std::string SweepClient::round_trip(const std::string& text,
                                    std::chrono::milliseconds deadline) {
  if (text.size() > ring_.slot_bytes()) {
    throw ClientError("request exceeds slot capacity");
  }
  const Clock::time_point limit = Clock::now() + deadline;

  // Claim: CAS any Free slot. All slots busy is the admission bound doing
  // its job — keep trying until the deadline.
  SlotHeader* slot = nullptr;
  std::uint32_t idx = 0;
  unsigned spins = 0;
  while (slot == nullptr) {
    if (ring_.header()->alive.load(std::memory_order_acquire) == 0) {
      throw ClientError("sweep daemon is not serving (ring not alive)");
    }
    for (std::uint32_t i = 0; i < ring_.slots(); ++i) {
      std::uint32_t expected = kSlotFree;
      if (ring_.slot(i)->state.compare_exchange_strong(
              expected, kSlotClaimed, std::memory_order_acquire)) {
        slot = ring_.slot(i);
        idx = i;
        break;
      }
    }
    if (slot == nullptr) {
      if (Clock::now() >= limit) {
        throw ClientError("ring saturated: no free slot before deadline");
      }
      backoff(spins);
    }
  }

  // Publish the request.
  std::memcpy(ring_.payload(idx), text.data(), text.size());
  slot->client_id = client_id_;
  slot->sequence = ++sequence_;
  slot->request_bytes = static_cast<std::uint32_t>(text.size());
  slot->response_bytes = 0;
  slot->status = 0;
  slot->state.store(kSlotRequest, std::memory_order_release);

  // Await the response.
  spins = 0;
  for (;;) {
    const std::uint32_t state = slot->state.load(std::memory_order_acquire);
    if (state == kSlotResponse) break;
    if (ring_.header()->alive.load(std::memory_order_acquire) == 0) {
      // Leave the slot as-is: the segment dies with the daemon.
      throw ClientError("sweep daemon exited before responding");
    }
    if (Clock::now() >= limit) {
      // Withdraw a request the daemon has not taken, or abandon a taken
      // one: the daemon frees an abandoned slot once it has answered, so
      // the slot is never handed to a successor while the daemon writes
      // it. If both CASes fail, the response landed meanwhile.
      std::uint32_t expected = kSlotRequest;
      if (slot->state.compare_exchange_strong(expected, kSlotFree,
                                              std::memory_order_acq_rel) ||
          (expected == kSlotBusy &&
           slot->state.compare_exchange_strong(expected, kSlotAbandoned,
                                               std::memory_order_acq_rel))) {
        throw ClientError("deadline expired awaiting response");
      }
      break;
    }
    backoff(spins);
  }

  std::string response(ring_.payload(idx), slot->response_bytes);
  const bool error = slot->status != 0;
  slot->state.store(kSlotFree, std::memory_order_release);
  if (error) throw ClientError("daemon error: " + response);
  return response;
}

}  // namespace lpomp::serve

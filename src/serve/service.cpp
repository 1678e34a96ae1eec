#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <thread>
#include <vector>

#include "exec/json.hpp"
#include "serve/wire.hpp"

namespace lpomp::serve {

SweepService::SweepService(Config config)
    : config_(std::move(config)),
      scheduler_(config_.scheduler),
      ring_(ShmRing::create(config_.shm_name, config_.slots,
                            config_.slot_bytes)) {
  ring_.header()->alive.store(1, std::memory_order_release);
}

SweepService::~SweepService() {
  // Mark dead before the mapping goes away so polling clients fail over
  // instead of spinning on a stale segment until their deadline.
  ring_.header()->alive.store(0, std::memory_order_release);
}

bool SweepService::serve_slot(std::uint32_t i) {
  SlotHeader* slot = ring_.slot(i);
  // The client may have withdrawn its request since the scan.
  std::uint32_t expected = kSlotRequest;
  if (!slot->state.compare_exchange_strong(expected, kSlotBusy,
                                           std::memory_order_acquire)) {
    return false;
  }
  char* payload = ring_.payload(i);

  std::string response;
  std::uint32_t status = 0;
  try {
    // request_bytes is written by another process: read it once and never
    // past the slot this daemon mapped.
    const std::size_t request_bytes = slot->request_bytes;
    if (request_bytes > config_.slot_bytes) {
      throw WireError("request header claims " +
                      std::to_string(request_bytes) +
                      " bytes but a slot holds " +
                      std::to_string(config_.slot_bytes));
    }
    const std::string text(payload, request_bytes);
    if (is_stats_request(text)) {
      // Telemetry probe: answer from the ring header without running a
      // sweep, so clients can read queue-depth/throughput counters from a
      // live daemon.
      response = encode_stats_response(stats_json());
    } else {
      const SweepRequest request = decode_request(text);
      const exec::SweepResult result =
          scheduler_.run(request.to_spec(), request.strategy);
      response = encode_response(result);
    }
  } catch (const std::exception& e) {
    response = encode_error_response(e.what());
    status = 1;
  }
  if (response.size() > ring_.slot_bytes()) {
    response = encode_error_response(
        "response exceeds slot capacity (" + std::to_string(response.size()) +
        " > " + std::to_string(ring_.slot_bytes()) +
        " bytes); narrow the sweep or restart the daemon with --slot-mb=");
    status = 1;
  }

  std::memcpy(payload, response.data(), response.size());
  slot->response_bytes = static_cast<std::uint32_t>(response.size());
  slot->status = status;
  ring_.header()->requests.fetch_add(1, std::memory_order_relaxed);
  ring_.header()->responses.fetch_add(1, std::memory_order_relaxed);
  last_client_ = slot->client_id;
  expected = kSlotBusy;
  if (!slot->state.compare_exchange_strong(expected, kSlotResponse,
                                           std::memory_order_release)) {
    // The client abandoned the request at its deadline; nobody reads the
    // response, so the slot goes straight back to the pool.
    slot->state.store(kSlotFree, std::memory_order_release);
  }
  return true;
}

std::size_t SweepService::poll_once() {
  // Snapshot the pending set, with each request's client id, first so one
  // scan's fairness decision is made over one consistent view (a withdrawn
  // slot may be reclaimed and rewritten mid-scan); requests published
  // mid-scan wait one poll.
  struct Pending {
    std::uint32_t slot;
    std::uint32_t client_id;
  };
  std::vector<Pending> pending;
  for (std::uint32_t i = 0; i < ring_.slots(); ++i) {
    if (ring_.slot(i)->state.load(std::memory_order_acquire) ==
        kSlotRequest) {
      pending.push_back({i, ring_.slot(i)->client_id});
    }
  }
  if (pending.empty()) return 0;

  RingHeader* header = ring_.header();
  std::uint32_t peak = header->queue_depth_peak.load(std::memory_order_relaxed);
  while (peak < pending.size() &&
         !header->queue_depth_peak.compare_exchange_weak(
             peak, static_cast<std::uint32_t>(pending.size()),
             std::memory_order_relaxed)) {
  }

  // Round-robin fairness over client ids: serve in order of distance from
  // the last-served client's successor, so ids take turns regardless of
  // which slots they landed in. Slot index breaks ties (one client holding
  // several slots is served in slot order within its turn).
  const std::uint32_t after = last_client_ + 1;
  std::stable_sort(pending.begin(), pending.end(),
                   [after](const Pending& a, const Pending& b) {
                     return a.client_id - after < b.client_id - after;
                   });
  std::size_t served = 0;
  for (const Pending& p : pending) served += serve_slot(p.slot) ? 1 : 0;
  return served;
}

void SweepService::serve(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    if (poll_once() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

std::string SweepService::stats_json() const {
  const RingHeader* header = ring_.header();
  exec::JsonWriter w;
  w.begin_object();
  w.field("schema", "lpomp-serve-stats-v1");
  w.field("shm_name", ring_.name());
  w.field("slots", ring_.slots());
  w.field("slot_bytes", static_cast<std::uint64_t>(ring_.slot_bytes()));
  w.field("requests",
          header->requests.load(std::memory_order_relaxed));
  w.field("responses",
          header->responses.load(std::memory_order_relaxed));
  w.field("queue_depth_peak",
          header->queue_depth_peak.load(std::memory_order_relaxed));
  w.field("clients",
          header->next_client.load(std::memory_order_relaxed));
  if (const exec::DiskResultStore* store = scheduler_.disk_store()) {
    const exec::DiskResultStore::Stats s = store->stats();
    w.field("store_root", store->root());
    w.field("store_entries", static_cast<std::uint64_t>(store->size()));
    w.field("store_hits", s.hits);
    w.field("store_misses", s.misses);
    w.field("store_insertions", s.insertions);
    w.field("store_quarantined", s.quarantined);
    w.field("store_bytes_read", s.bytes_read);
    w.field("store_bytes_written", s.bytes_written);
  }
  w.end_object();
  return w.str();
}

}  // namespace lpomp::serve

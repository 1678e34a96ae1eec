// SweepService — the daemon side of the sweep service.
//
// Owns the shared-memory ring (ring.hpp), a Scheduler, and — through the
// scheduler's Config::store_dir — the disk-persistent result store. Each
// poll scans the ring for published requests and serves them one at a
// time: decode (wire.hpp) → Scheduler::run(spec, strategy) → response
// JSON back into the slot. A request whose grid was already computed never
// reaches the simulator: the scheduler's layered cache (LRU over the disk
// store) answers it, which is what makes the warm round trip microseconds
// instead of seconds.
//
// Fairness: when several clients have requests pending in the same scan,
// they are served round-robin by client id, starting after the last id
// served — a client hammering the ring cannot starve a neighbour, it can
// only fill its own claimed slots. Admission is bounded by the ring's
// fixed slot count (see ring.hpp); the peak pending depth is recorded in
// the ring header and surfaces in the stats document.
//
// Lifecycle: the constructor creates the ring and marks it alive; stopping
// (the CLI's SIGTERM handler flips the stop flag) drains nothing — in-slot
// requests already claimed by clients but not yet published simply see
// alive==0 and fail over cleanly on their side. The destructor marks the
// ring dead and unlinks the segment. The persistent store outlives all of
// this by design: a restarted daemon with the same store_dir serves
// yesterday's results from disk.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "exec/scheduler.hpp"
#include "serve/ring.hpp"

namespace lpomp::serve {

class SweepService {
 public:
  struct Config {
    std::string shm_name = "/lpomp-sweep";
    std::uint32_t slots = ShmRing::kDefaultSlots;
    std::size_t slot_bytes = ShmRing::kDefaultSlotBytes;
    exec::Scheduler::Config scheduler;  ///< store_dir enables persistence
  };

  /// Creates the ring and the scheduler. Throws RingError /
  /// std::runtime_error when the segment or the store cannot be set up.
  explicit SweepService(Config config);
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Serves one scan of the ring: every request pending right now, in
  /// round-robin client order. Returns the number served (0 → idle).
  std::size_t poll_once();

  /// Serves until `stop` becomes true (checked between requests), sleeping
  /// briefly when idle.
  void serve(const std::atomic<bool>& stop);

  exec::Scheduler& scheduler() { return scheduler_; }
  const ShmRing& ring() const { return ring_; }

  /// One-line JSON stats document (requests, responses, queue peak, store
  /// counters) — the daemon CLI prints this on shutdown.
  std::string stats_json() const;

 private:
  /// Takes, answers and publishes slot `i`. False when its request was
  /// withdrawn before the daemon could take it.
  bool serve_slot(std::uint32_t i);

  Config config_;
  exec::Scheduler scheduler_;
  ShmRing ring_;
  std::uint32_t last_client_ = 0;  ///< round-robin cursor
};

}  // namespace lpomp::serve

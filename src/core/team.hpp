// Persistent fork-join worker pool — the OpenMP "farm of threads" of the
// paper's Figure 1. The master publishes a parallel-region body; workers
// (spawned once, at runtime startup) execute it and rendezvous at the
// implicit end-of-region barrier.
#pragma once

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "core/barrier.hpp"

namespace lpomp::core {

class Team {
 public:
  using Body = std::function<void(unsigned tid)>;

  /// Spawns `n - 1` worker threads (the master participates as tid 0).
  /// `barrier` is the team's rendezvous primitive; owned by the caller and
  /// shared with ThreadCtx::barrier().
  Team(unsigned n, SenseBarrier& barrier);
  ~Team();

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  unsigned size() const { return n_; }

  /// Runs `body(tid)` on all n threads; returns when every thread has
  /// finished (implicit join barrier). Must be called from the master
  /// thread; regions do not nest.
  void run(const Body& body);

  SenseBarrier& barrier() { return barrier_; }

  /// 64-byte-aligned per-thread scratch slot, used by reductions.
  void* reduce_slot(unsigned tid) {
    LPOMP_CHECK(tid < n_);
    return slots_[tid].bytes;
  }
  static constexpr std::size_t kReduceSlotBytes = 64;

  /// Parallel regions executed so far.
  std::uint64_t region_count() const {
    return epoch_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(unsigned tid);

  struct alignas(64) Slot {
    std::byte bytes[kReduceSlotBytes];
  };

  unsigned n_;
  SenseBarrier& barrier_;
  const Body* body_ = nullptr;            // valid while an epoch is running
  std::atomic<std::uint64_t> epoch_{0};   // bumped to launch a region
  std::atomic<unsigned> done_{0};         // workers finished this epoch
  std::atomic<bool> shutdown_{false};
  std::vector<Slot> slots_;
  std::vector<std::thread> workers_;
};

}  // namespace lpomp::core

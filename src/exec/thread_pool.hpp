// Work-stealing thread pool for the experiment engine.
//
// Shape follows the hierarchical/work-stealing schedulers of the related
// OpenMP-runtime literature (Thibault et al.; Wang et al.): each worker owns
// a deque and runs newest-first from its own end (LIFO keeps a worker's
// footprint warm), while idle workers steal oldest-first from victims (FIFO
// steals grab the largest remaining chunks of the bag). Simulation tasks
// are seconds-long, so uncontended-pop micro-optimisations (Chase-Lev)
// are deliberately skipped in favour of small, obviously-correct locking.
//
// The pool is topology-aware: workers are grouped into domains (sockets) by
// an exec::Topology, and victim scan order prefers same-domain deques before
// crossing sockets. local/remote steal counts are exported so sweeps can report how often
// work actually crossed a socket.
//
// The pool only schedules; determinism of results is the submitter's
// problem and is solved by making every task self-contained (see
// sweep.hpp) and writing each result to a pre-assigned slot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/topology.hpp"

namespace lpomp::exec {

class WorkStealingPool {
 public:
  /// Steal provenance: same-domain vs cross-domain victim queues.
  struct StealStats {
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
  };

  /// `workers == 0` → one per host hardware thread (min 1). An explicit
  /// `topology` overrides `workers` (the pool gets exactly
  /// sockets × cores_per_socket threads); an unspecified one is detected
  /// from the host and degrades to a flat single-domain shape.
  explicit WorkStealingPool(unsigned workers = 0, Topology topology = {});

  /// Drains remaining work, then joins all workers.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  unsigned workers() const { return static_cast<unsigned>(queues_.size()); }
  const Topology& topology() const { return topology_; }
  unsigned domains() const { return topology_.domains(); }

  /// Enqueues `fn`; round-robin across all worker deques. `fn` must not
  /// throw (the engine's task wrapper catches and records task failures).
  void submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  StealStats steal_stats() const {
    return {local_steals_.load(std::memory_order_relaxed),
            remote_steals_.load(std::memory_order_relaxed)};
  }

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  bool pop_own(std::size_t self, std::function<void()>& out);
  bool steal_other(std::size_t self, std::function<void()>& out);
  void worker_loop(std::size_t self);

  Topology topology_;
  std::vector<std::unique_ptr<Queue>> queues_;
  /// steal_order_[self]: victim indices, same-domain workers first; the
  /// first same_domain_[self] entries share self's domain.
  std::vector<std::vector<std::size_t>> steal_order_;
  std::vector<std::size_t> same_domain_;
  std::vector<std::thread> threads_;

  std::atomic<std::uint64_t> local_steals_{0};
  std::atomic<std::uint64_t> remote_steals_{0};

  std::mutex state_mutex_;
  std::condition_variable work_cv_;  ///< workers sleep here when the bag is dry
  std::condition_variable idle_cv_;  ///< wait_idle() sleeps here
  std::size_t unfinished_ = 0;       ///< submitted but not yet completed
  std::size_t next_queue_ = 0;
  bool stopping_ = false;
};

}  // namespace lpomp::exec

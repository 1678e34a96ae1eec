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
// The pool is flat: every worker steals from the others in one rotated
// ring order, starting at its right-hand neighbour so idle workers do not
// all hammer the same victim.
//
// Besides its `workers()` deque owners the pool can start helper threads
// that own no deque and only steal, up to max(workers, host hardware
// threads) threads in all (start_helpers()). A helper scans its partner
// worker (its index modulo workers()) first, then the partner's ring. The
// pool runs as many tasks at once as it has threads; a submitter that
// needs fewer bounds them inside its tasks (the Scheduler admits tasks by
// team width, DESIGN.md §10).
//
// The pool only schedules; determinism of results is the submitter's
// problem and is solved by making every task self-contained (see
// sweep.hpp) and writing each result to a pre-assigned slot.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lpomp::exec {

class WorkStealingPool {
 public:
  /// `workers == 0` → one per host hardware thread (min 1).
  explicit WorkStealingPool(unsigned workers = 0);

  /// Drains remaining work, then joins all workers.
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  unsigned workers() const { return static_cast<unsigned>(queues_.size()); }
  /// max(workers(), host_threads()): the most threads the pool starts,
  /// and so the most tasks it runs at once.
  unsigned max_threads() const { return max_threads_; }

  /// Starts helper threads until min(n, max_threads()) threads run.
  /// Helpers stay until the pool is destroyed. Call from the submitting
  /// thread, not from a task.
  void start_helpers(unsigned n);

  /// Enqueues `fn`; round-robin across all worker deques. `fn` must not
  /// throw (the engine's task wrapper catches and records task failures).
  void submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  bool pop_own(std::size_t self, std::function<void()>& out);
  bool steal_other(std::size_t self, std::function<void()>& out);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  const unsigned max_threads_;
  /// Workers first, then helpers as start_helpers() starts them.
  std::vector<std::thread> threads_;

  std::mutex state_mutex_;
  std::condition_variable work_cv_;  ///< workers sleep here when the bag is dry
  std::condition_variable idle_cv_;  ///< wait_idle() sleeps here
  std::size_t unfinished_ = 0;       ///< submitted but not yet completed
  std::size_t next_queue_ = 0;
  bool stopping_ = false;
};

}  // namespace lpomp::exec

#include "exec/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "exec/width_gate.hpp"

namespace lpomp::exec {

WorkStealingPool::WorkStealingPool(unsigned workers)
    : max_threads_(std::max(workers, host_threads())) {
  const unsigned n = workers == 0 ? host_threads() : workers;
  queues_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  threads_.reserve(max_threads_);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  wait_idle();
  {
    std::lock_guard lock(state_mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkStealingPool::start_helpers(unsigned n) {
  n = std::min(n, max_threads());
  while (threads_.size() < n) {
    const std::size_t self = threads_.size();
    threads_.emplace_back([this, self] { worker_loop(self); });
  }
}

void WorkStealingPool::submit(std::function<void()> fn) {
  std::size_t target;
  {
    std::lock_guard lock(state_mutex_);
    ++unfinished_;
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    std::lock_guard lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void WorkStealingPool::wait_idle() {
  std::unique_lock lock(state_mutex_);
  idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
}

bool WorkStealingPool::pop_own(std::size_t self, std::function<void()>& out) {
  if (self >= queues_.size()) return false;  // helpers own no deque
  Queue& q = *queues_[self];
  std::lock_guard lock(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());  // LIFO from own end
  q.tasks.pop_back();
  return true;
}

bool WorkStealingPool::steal_other(std::size_t self,
                                   std::function<void()>& out) {
  // One rotated ring: a worker scans the other deques from its right-hand
  // neighbour on; a helper scans every deque from its partner worker on.
  const std::size_t n = queues_.size();
  const bool helper = self >= n;
  const std::size_t first = helper ? self % n : self + 1;
  const std::size_t victims = helper ? n : n - 1;
  for (std::size_t k = 0; k < victims; ++k) {
    Queue& victim = *queues_[(first + k) % n];
    std::lock_guard lock(victim.mutex);
    if (victim.tasks.empty()) continue;
    out = std::move(victim.tasks.front());  // FIFO from the victim's end
    victim.tasks.pop_front();
    return true;
  }
  return false;
}

void WorkStealingPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    if (pop_own(self, task) || steal_other(self, task)) {
      task();
      // Destroy the closure (and anything it owns) BEFORE signalling
      // completion: wait_idle() returning must mean all task state is gone,
      // not merely executed, or the teardown cost leaks into whatever runs
      // next.
      task = nullptr;
      std::lock_guard lock(state_mutex_);
      if (--unfinished_ == 0) idle_cv_.notify_all();
      continue;
    }
    std::unique_lock lock(state_mutex_);
    if (stopping_) return;
    // Re-check under the lock: a task may have landed between the failed
    // scan and acquiring the lock; waking spuriously is harmless.
    work_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

}  // namespace lpomp::exec

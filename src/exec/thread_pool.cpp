#include "exec/thread_pool.hpp"

#include <chrono>

namespace lpomp::exec {

WorkStealingPool::WorkStealingPool(unsigned workers, Topology topology)
    : topology_(Topology::resolve(topology, workers)) {
  const unsigned n = topology_.workers();
  queues_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  // Victim order per worker: same-domain deques first (rotating from the
  // next neighbour so siblings don't all hammer the same victim), then the
  // remaining workers in the same rotated order.
  steal_order_.resize(n);
  same_domain_.resize(n);
  for (unsigned self = 0; self < n; ++self) {
    std::vector<std::size_t> near;
    std::vector<std::size_t> far;
    const unsigned home = topology_.domain_of(self);
    for (unsigned d = 1; d < n; ++d) {
      const unsigned victim = (self + d) % n;
      (topology_.domain_of(victim) == home ? near : far).push_back(victim);
    }
    same_domain_[self] = near.size();
    near.insert(near.end(), far.begin(), far.end());
    steal_order_[self] = std::move(near);
  }
  threads_.reserve(n);
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
  Queue& q = *queues_[self];
  std::lock_guard lock(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());  // LIFO from own end
  q.tasks.pop_back();
  return true;
}

bool WorkStealingPool::steal_other(std::size_t self,
                                   std::function<void()>& out) {
  const std::vector<std::size_t>& order = steal_order_[self];
  for (std::size_t k = 0; k < order.size(); ++k) {
    Queue& victim = *queues_[order[k]];
    std::lock_guard lock(victim.mutex);
    if (victim.tasks.empty()) continue;
    out = std::move(victim.tasks.front());  // FIFO from the victim's end
    victim.tasks.pop_front();
    (k < same_domain_[self] ? local_steals_ : remote_steals_)
        .fetch_add(1, std::memory_order_relaxed);
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

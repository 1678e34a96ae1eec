#include "core/team.hpp"

namespace lpomp::core {

Team::Team(unsigned n, SenseBarrier& barrier)
    : n_(n), barrier_(barrier), slots_(n) {
  LPOMP_CHECK_MSG(n >= 1, "team needs at least one thread");
  LPOMP_CHECK_MSG(barrier.team_size() == n, "barrier/team size mismatch");
  workers_.reserve(n - 1);
  for (unsigned tid = 1; tid < n; ++tid) {
    workers_.emplace_back([this, tid] { worker_loop(tid); });
  }
}

Team::~Team() {
  shutdown_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void Team::run(const Body& body) {
  body_ = &body;
  done_.store(0, std::memory_order_relaxed);
  const std::uint64_t epoch = epoch_.fetch_add(1, std::memory_order_release) + 1;
  epoch_.notify_all();

  body(0);  // the master is tid 0

  // Join: wait until all workers have reported in for this epoch.
  unsigned finished = done_.load(std::memory_order_acquire);
  while (finished != n_ - 1) {
    done_.wait(finished, std::memory_order_acquire);
    finished = done_.load(std::memory_order_acquire);
  }
  (void)epoch;
  body_ = nullptr;
}

void Team::worker_loop(unsigned tid) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    while (epoch == seen_epoch) {
      epoch_.wait(epoch, std::memory_order_acquire);
      epoch = epoch_.load(std::memory_order_acquire);
    }
    seen_epoch = epoch;
    if (shutdown_.load(std::memory_order_acquire)) return;

    (*body_)(tid);

    done_.fetch_add(1, std::memory_order_acq_rel);
    done_.notify_one();
  }
}

}  // namespace lpomp::core

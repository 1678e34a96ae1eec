// WidthGate — the Scheduler's admission rule for live runs (DESIGN.md §10).
//
// A run's width is its team's thread count, i.e. the host threads it keeps
// busy. With P workers, a sweep whose widest task is W and H host threads
// (host_threads(): the CPUs the process may run on), a run of width w
// starts while fewer than P runs are in flight (so no sweep runs fewer
// than P tasks at once),
// or while the in-flight widths plus w stay within min(P × W, H): narrow
// runs fill host threads the sweep already budgets, and never beyond the
// host. The first clause is deliberately not capped at H: that would run
// wide teams one at a time, which finish sooner side by side.
//
// Admission is first come, first served (tickets), so narrow runs that
// arrive after a waiting wide one cannot keep it out.
#pragma once

#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace lpomp::exec {

/// The CPUs in the calling thread's affinity mask (so `taskset -c 0`
/// counts one), or std::thread::hardware_concurrency() when the mask cannot
/// be read; 1 when the host won't say either.
inline unsigned host_threads() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int n = CPU_COUNT(&mask);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

class WidthGate {
 public:
  WidthGate(unsigned workers, unsigned widest, unsigned host_threads)
      : workers_(workers),
        budget_(std::min(std::uint64_t{workers} * widest,
                         std::uint64_t{host_threads})) {}

  WidthGate(const WidthGate&) = delete;
  WidthGate& operator=(const WidthGate&) = delete;

  /// Blocks until a run of `width` may start, then counts it in flight.
  void enter(unsigned width) {
    std::unique_lock lock(mutex_);
    const std::uint64_t ticket = next_ticket_++;
    cv_.wait(lock, [&] {
      return ticket == serving_ &&
             (tasks_ < workers_ || host_threads_ + width <= budget_);
    });
    ++serving_;
    ++tasks_;
    host_threads_ += width;
    peak_tasks_ = std::max(peak_tasks_, tasks_);
    peak_host_threads_ = std::max(peak_host_threads_, host_threads_);
    cv_.notify_all();  // the next ticket may fit as well
  }

  /// Ends a run entered with the same `width`.
  void leave(unsigned width) {
    {
      std::lock_guard lock(mutex_);
      --tasks_;
      host_threads_ -= width;
    }
    cv_.notify_all();
  }

  /// The most runs the rule ever admits at once: P, or one host thread
  /// per run up to the budget.
  unsigned max_in_flight() const {
    return static_cast<unsigned>(
        std::max(std::uint64_t{workers_}, budget_));
  }

  /// Runs blocked in enter().
  std::uint64_t queued() const {
    std::lock_guard lock(mutex_);
    return next_ticket_ - serving_;
  }
  unsigned peak_tasks() const {
    std::lock_guard lock(mutex_);
    return peak_tasks_;
  }
  std::uint64_t peak_host_threads() const {
    std::lock_guard lock(mutex_);
    return peak_host_threads_;
  }

 private:
  const unsigned workers_;
  const std::uint64_t budget_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t serving_ = 0;
  unsigned tasks_ = 0;
  std::uint64_t host_threads_ = 0;
  unsigned peak_tasks_ = 0;
  std::uint64_t peak_host_threads_ = 0;
};

}  // namespace lpomp::exec

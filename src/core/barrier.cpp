#include "core/barrier.hpp"

namespace lpomp::core {

SenseBarrier::SenseBarrier(unsigned n) : n_(n), local_(n) {
  LPOMP_CHECK_MSG(n >= 1, "barrier needs at least one thread");
}

void SenseBarrier::arrive_and_wait(unsigned tid) {
  LPOMP_CHECK(tid < n_);
  const unsigned my_sense = local_[tid].sense;
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
    // Last arriver: reset the count and flip the global sense.
    arrived_.store(0, std::memory_order_relaxed);
    global_sense_.store(my_sense, std::memory_order_release);
    global_sense_.notify_all();
  } else {
    unsigned seen = global_sense_.load(std::memory_order_acquire);
    while (seen != my_sense) {
      global_sense_.wait(seen, std::memory_order_acquire);
      seen = global_sense_.load(std::memory_order_acquire);
    }
  }
  local_[tid].sense = 1 - my_sense;
}

}  // namespace lpomp::core

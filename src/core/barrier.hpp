// The fork-join runtime's barrier: a centralized sense-reversing barrier on
// atomics, the primitive of hardware-coherent intra-node teams.
#pragma once

#include <atomic>
#include <vector>

#include "support/error.hpp"

namespace lpomp::core {

/// Centralized sense-reversing barrier. Reusable across any number of
/// episodes; uses C++20 atomic wait so blocked threads sleep.
class SenseBarrier {
 public:
  explicit SenseBarrier(unsigned n);

  /// Blocks until all team_size() threads have arrived. `tid` identifies
  /// the calling thread within the team.
  void arrive_and_wait(unsigned tid);

  unsigned team_size() const { return n_; }

 private:
  struct alignas(64) LocalSense {
    unsigned sense = 1;
  };

  unsigned n_;
  std::atomic<unsigned> arrived_{0};
  std::atomic<unsigned> global_sense_{0};
  std::vector<LocalSense> local_;
};

}  // namespace lpomp::core

// Loop-level work sharing — the OpenMP `#pragma omp for` equivalents
// (§3.1: "loop-level parallelism ... allows an OpenMP implementation to
// easily split the work across multiple threads").
//
// One schedule: schedule(static), a contiguous [first,last) partition, the
// OpenMP default. It is deterministic, which also makes the machine
// simulation reproducible.
//
// Both functions are called from *inside* a parallel region by every thread
// of the team, with that thread's tid.
#pragma once

#include <algorithm>
#include <cstdint>

#include "support/error.hpp"

namespace lpomp::core {

using index_t = std::int64_t;

/// Contiguous static partition of [first, last) for thread `tid` of
/// `nthreads`: the first `rem` threads get one extra iteration.
struct StaticRange {
  index_t begin = 0;
  index_t end = 0;
  index_t size() const { return end - begin; }
};

inline StaticRange static_partition(index_t first, index_t last, unsigned tid,
                                    unsigned nthreads) {
  LPOMP_CHECK(last >= first && nthreads > 0 && tid < nthreads);
  const index_t total = last - first;
  const index_t base = total / static_cast<index_t>(nthreads);
  const index_t rem = total % static_cast<index_t>(nthreads);
  const index_t t = static_cast<index_t>(tid);
  const index_t begin = first + t * base + std::min(t, rem);
  return StaticRange{begin, begin + base + (t < rem ? 1 : 0)};
}

/// schedule(static): each thread runs its contiguous block.
template <typename Fn>
void for_static(index_t first, index_t last, unsigned tid, unsigned nthreads,
                Fn&& fn) {
  const StaticRange r = static_partition(first, last, tid, nthreads);
  for (index_t i = r.begin; i < r.end; ++i) fn(i);
}

}  // namespace lpomp::core

// The fork-join team — the OpenMP "farm of threads" of the paper's Figure 1
// — as n fibers on the calling host thread. Simulated threads never
// interact between barriers (DESIGN.md §6): tid 0 runs on the caller's
// stack until it waits (at a barrier, or for an MPI message), then the next
// unfinished fiber in tid order runs until it waits, and so on; the last
// arrival at a barrier keeps running. Fibers switch with glibc's
// swapcontext; tids 1..n-1 run on kStackBytes stacks above guard pages.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "support/error.hpp"

namespace lpomp::core {

/// The runtime's one barrier: centralized and sense-reversing, reusable
/// across episodes. A non-last arrival yields (Team::yield) until the last
/// arrival flips the sense; the last arrival keeps running.
class SenseBarrier {
 public:
  explicit SenseBarrier(unsigned n);
  /// Returns once all team_size() threads have arrived; `tid` is the caller.
  void arrive_and_wait(unsigned tid);
  unsigned team_size() const { return n_; }

 private:
  unsigned n_;
  unsigned arrived_ = 0;
  unsigned global_sense_ = 0;
  std::vector<unsigned> local_sense_;
};

class Team {
 public:
  using Body = std::function<void(unsigned tid)>;

  /// Stack of each fiber but tid 0's; only touched pages become resident.
  static constexpr std::size_t kStackBytes = std::size_t{256} << 10;

  /// `n` simulated threads (tid 0 is run()'s caller). `barrier` is owned by
  /// the caller and shared with ThreadCtx::barrier().
  Team(unsigned n, SenseBarrier& barrier);
  ~Team();

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  unsigned size() const { return n_; }

  /// Runs `body(tid)` on all n threads and returns when every one has
  /// finished; a 1-thread team calls body(0) directly. An exception on any
  /// thread ends the region (the others stop at their next wait) and is
  /// rethrown here.
  void run(const Body& body);

  SenseBarrier& barrier() { return barrier_; }

  /// 64-byte-aligned per-thread scratch slot, used by reductions.
  void* reduce_slot(unsigned tid) {
    LPOMP_CHECK(tid < n_);
    return slots_[tid].bytes;
  }
  static constexpr std::size_t kReduceSlotBytes = 64;

  /// Lets the calling simulated thread wait: switches to the next
  /// unfinished fiber of this host thread's running team (throwing when an
  /// exception is ending the region), or yields the host thread outside one.
  static void yield();

 private:
  struct Fiber;
  struct alignas(64) Slot {
    std::byte bytes[kReduceSlotBytes];
  };

  static void entry();
  unsigned next_unfinished() const;
  void switch_to(unsigned next);
  /// Completes a switch on the fiber that now runs (sanitizer bookkeeping).
  void finish_switch(void* fake_stack);

  unsigned n_;
  SenseBarrier& barrier_;
  std::vector<Slot> slots_;
  std::vector<Fiber> fibers_;
  std::byte* stacks_ = nullptr;  ///< guard page + stack per fiber
  std::size_t stacks_bytes_ = 0;
  const Body* body_ = nullptr;  ///< the running region's
  unsigned current_ = 0;        ///< the running fiber's tid
  unsigned previous_ = 0;       ///< the tid that switched to it
  unsigned unfinished_ = 0;     ///< fibers 1..n-1 still in the body
  std::exception_ptr error_;    ///< the region's first exception
};

}  // namespace lpomp::core

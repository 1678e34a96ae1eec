#include "core/team.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <thread>
#include <utility>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif
#ifdef __SANITIZE_THREAD__
#include <sanitizer/tsan_interface.h>
#endif

namespace lpomp::core {

namespace {

/// The team whose region runs on this host thread, if any.
thread_local Team* running_team = nullptr;

/// Thrown out of yield() while an exception ends the region; run() eats it.
struct RegionAborted {};

}  // namespace

SenseBarrier::SenseBarrier(unsigned n) : n_(n), local_sense_(n, 1) {
  LPOMP_CHECK_MSG(n >= 1, "barrier needs at least one thread");
}

void SenseBarrier::arrive_and_wait(unsigned tid) {
  LPOMP_CHECK(tid < n_);
  const unsigned my_sense = local_sense_[tid];
  if (++arrived_ == n_) {
    arrived_ = 0;  // last arrival: reset the count and flip the sense
    global_sense_ = my_sense;
  } else {
    while (global_sense_ != my_sense) Team::yield();
  }
  local_sense_[tid] = 1 - my_sense;
}

struct Team::Fiber {
  ucontext_t context{};
  const void* stack = nullptr;  ///< lowest byte; tid 0's is learnt by ASan
  std::size_t stack_bytes = 0;
  bool done = false;  ///< left the body (tid 0: joining)
  void* tsan = nullptr;
};

Team::Team(unsigned n, SenseBarrier& barrier)
    : n_(n), barrier_(barrier), slots_(n) {
  LPOMP_CHECK_MSG(n >= 1, "team needs at least one thread");
  LPOMP_CHECK_MSG(barrier.team_size() == n, "barrier/team size mismatch");
  fibers_ = std::vector<Fiber>(n);
  if (n == 1) return;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  stacks_bytes_ = (page + kStackBytes) * (n - 1);
  void* map = mmap(nullptr, stacks_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  LPOMP_CHECK_MSG(map != MAP_FAILED, "cannot map fiber stacks");
  stacks_ = static_cast<std::byte*>(map);
  for (unsigned tid = 1; tid < n; ++tid) {
    std::byte* guard = stacks_ + (page + kStackBytes) * (tid - 1);
    LPOMP_CHECK(mprotect(guard, page, PROT_NONE) == 0);
    fibers_[tid].stack = guard + page;
    fibers_[tid].stack_bytes = kStackBytes;
#ifdef __SANITIZE_THREAD__
    fibers_[tid].tsan = __tsan_create_fiber(0);
#endif
  }
}

Team::~Team() {
  if (stacks_ == nullptr) return;
#ifdef __SANITIZE_THREAD__
  for (unsigned tid = 1; tid < n_; ++tid) __tsan_destroy_fiber(fibers_[tid].tsan);
#endif
#ifdef __SANITIZE_ADDRESS__
  // Frames that never returned leave redzones poisoned; a later mapping at
  // these addresses must not inherit them.
  ASAN_UNPOISON_MEMORY_REGION(stacks_, stacks_bytes_);
#endif
  munmap(stacks_, stacks_bytes_);
}

void Team::run(const Body& body) {
  if (n_ == 1) return body(0);
  Team* const outer = std::exchange(running_team, this);
  body_ = &body;
  unfinished_ = n_ - 1;
  for (unsigned tid = 1; tid < n_; ++tid) {
    Fiber& f = fibers_[tid];
    f.done = false;
#ifdef __SANITIZE_ADDRESS__
    ASAN_UNPOISON_MEMORY_REGION(f.stack, f.stack_bytes);
#endif
    getcontext(&f.context);
    f.context.uc_stack.ss_sp = const_cast<void*>(f.stack);
    f.context.uc_stack.ss_size = f.stack_bytes;
    f.context.uc_link = nullptr;
    makecontext(&f.context, &Team::entry, 0);
  }
#ifdef __SANITIZE_THREAD__
  fibers_[0].tsan = __tsan_get_current_fiber();
#endif
  current_ = 0;
  fibers_[0].done = false;
  try {
    body(0);
  } catch (...) {
    if (!error_) error_ = std::current_exception();
  }
  fibers_[0].done = true;  // join: run the others until each has left
  while (unfinished_ > 0) switch_to(next_unfinished());
  running_team = outer;
  if (error_) {
    barrier_ = SenseBarrier(n_);  // the waiting threads left mid-episode
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

void Team::yield() {
  Team* const team = running_team;
  if (team == nullptr) return std::this_thread::yield();
  if (!team->error_) {
    const unsigned next = team->next_unfinished();
    LPOMP_CHECK_MSG(next != team->current_,
                    "a thread waits on a team whose others have all left");
    team->switch_to(next);
  }
  if (team->error_) throw RegionAborted{};
}

void Team::entry() {
  Team& team = *running_team;
  team.finish_switch(nullptr);
  const unsigned tid = team.current_;
  try {
    if (!team.error_) (*team.body_)(tid);
  } catch (...) {
    if (!team.error_) team.error_ = std::current_exception();
  }
  team.fibers_[tid].done = true;
  --team.unfinished_;
  team.switch_to(team.next_unfinished());  // never resumed
}

unsigned Team::next_unfinished() const {
  // After the caller itself; tid 0 (joining) once every fiber is done.
  unsigned tid = current_;
  for (unsigned step = 0; step < n_; ++step) {
    tid = tid + 1 == n_ ? 0 : tid + 1;
    if (!fibers_[tid].done) return tid;
  }
  return 0;
}

void Team::switch_to(unsigned next) {
  Fiber& from = fibers_[current_];
  previous_ = current_;
  current_ = next;
  void* fake_stack = nullptr;
#ifdef __SANITIZE_ADDRESS__
  // A fiber leaving for good passes no save slot, so ASan frees its fake
  // stack; tid 0 is done only in that it joins.
  const bool exiting = from.done && previous_ != 0;
  __sanitizer_start_switch_fiber(exiting ? nullptr : &fake_stack,
                                 fibers_[next].stack,
                                 fibers_[next].stack_bytes);
#endif
#ifdef __SANITIZE_THREAD__
  __tsan_switch_to_fiber(fibers_[next].tsan, 0);
#endif
  swapcontext(&from.context, &fibers_[next].context);
  finish_switch(fake_stack);
}

void Team::finish_switch([[maybe_unused]] void* fake_stack) {
#ifdef __SANITIZE_ADDRESS__
  // Learns the switching fiber's stack (tid 0's is known only this way).
  Fiber& from = fibers_[previous_];
  __sanitizer_finish_switch_fiber(fake_stack, &from.stack, &from.stack_bytes);
#endif
}

}  // namespace lpomp::core

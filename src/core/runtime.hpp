// The lpomp runtime — the paper's primary contribution, reproduced:
// a fork-join OpenMP-style runtime whose shared-data allocator can back the
// application's global arrays with either traditional 4 KB pages or 2 MB
// huge pages preallocated at startup through the (simulated) hugetlbfs.
//
// Optionally, a machine simulation is attached: every instrumented access
// made through Accessor<T> views is accounted against a simulated multi-core
// platform (Opteron 270 or Xeon+HT), and Runtime reports the simulated run
// time and hardware-event profile for the paper's figures.
//
// Typical use:
//   RuntimeConfig cfg;
//   cfg.num_threads = 4;
//   cfg.page_kind = PageKind::large2m;          // the knob under study
//   cfg.sim = SimConfig{sim::ProcessorSpec::opteron270(), {}};
//   Runtime rt(cfg);
//   auto x = rt.alloc_array<double>(n, "x");
//   rt.parallel([&](ThreadCtx& ctx) {
//     auto xv = ctx.view(x);
//     for_static(0, n, ctx.tid(), ctx.nthreads(),
//                [&](index_t i) { xv.store(i, 1.0); });
//   });
//   double secs = rt.finish_seconds();
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <optional>

#include "core/allocator.hpp"
#include "core/shared_array.hpp"
#include "core/team.hpp"
#include "mem/hugetlbfs.hpp"
#include "sim/machine.hpp"

namespace lpomp::core {

/// Machine-simulation attachment.
struct SimConfig {
  sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
  sim::CostModel cost;
  std::uint64_t seed = 0x5eedULL;
};

struct RuntimeConfig {
  unsigned num_threads = 4;

  /// Page size backing the shared-data pool — the independent variable of
  /// every experiment in the paper.
  PageKind page_kind = PageKind::small4k;

  /// Size of the startup-preallocated shared pool all global arrays and
  /// runtime allocations are carved from.
  std::size_t shared_pool_bytes = MiB(64);

  /// Simulated physical memory; 0 → sized automatically from the pool.
  std::size_t phys_mem_bytes = 0;

  /// Huge pages preallocated into the simulated hugetlbfs; 0 → just enough
  /// for the shared pool (plus slack). Ignored for 4 KB runs.
  std::size_t hugetlb_pool_pages = 0;

  /// Page size for the application binary's text mapping (§4.3: the paper
  /// keeps code on 4 KB pages; the code-page ablation flips this).
  PageKind code_page_kind = PageKind::small4k;

  /// Paging-policy overlay installed on every simulated thread (see
  /// paging/policy.hpp). Orthogonal to page_kind: the layout still
  /// determines the address stream; the policy reinterprets translations
  /// at accounting time. Default native = identity.
  paging::PolicySpec paging{};

  /// Attach the machine simulator (required for timing/profile output).
  std::optional<SimConfig> sim;

  /// When non-null (and a sim is attached), every simulated access, compute
  /// charge and fork-join boundary of the run is reported to this sink —
  /// how src/trace's recorder captures address traces. The sink must
  /// outlive the Runtime.
  sim::TraceSink* trace_sink = nullptr;
};

class Runtime;

/// Per-thread handle passed to parallel-region bodies.
class ThreadCtx {
 public:
  unsigned tid() const { return tid_; }
  unsigned nthreads() const;
  Runtime& runtime() const { return *rt_; }

  /// This thread's simulation engine, or nullptr when no sim is attached.
  sim::ThreadSim* sim() const { return sim_; }

  /// Instrumented view of a shared array for this thread.
  template <typename T>
  Accessor<T> view(const SharedArray<T>& array) const {
    return array.accessor(sim_);
  }

  /// Charge pure compute cycles to this thread (no-op without a sim).
  void compute(cycles_t cycles) const {
    if (sim_ != nullptr) sim_->add_compute(cycles);
  }

  /// Team-wide barrier. With a simulation attached this also closes the
  /// current sub-region (time between barriers is max-over-cores) and
  /// charges the barrier cost.
  void barrier();

  /// All-reduce over the team: every thread contributes `local`; every
  /// thread receives op-combined total. T must fit in a reduce slot.
  template <typename T, typename Op>
  T reduce(T local, Op op);

  /// `#pragma omp single`: `fn` runs on exactly one thread (the master),
  /// with an implicit barrier before and after so every thread observes its
  /// effects.
  template <typename Fn>
  void single(Fn&& fn) {
    barrier();
    if (tid_ == 0) fn();
    barrier();
  }

  /// `#pragma omp master`: runs on the master thread only, no barrier.
  template <typename Fn>
  void master(Fn&& fn) {
    if (tid_ == 0) fn();
  }

 private:
  friend class Runtime;
  ThreadCtx(Runtime& rt, unsigned tid, sim::ThreadSim* sim)
      : rt_(&rt), tid_(tid), sim_(sim) {}

  Runtime* rt_;
  unsigned tid_;
  sim::ThreadSim* sim_;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  unsigned num_threads() const { return config_.num_threads; }
  PageKind page_kind() const { return config_.page_kind; }
  const RuntimeConfig& config() const { return config_; }

  /// Allocates a zero-initialised shared array from the startup pool.
  template <typename T>
  SharedArray<T> alloc_array(std::size_t count, const std::string& label) {
    return SharedArray<T>(*alloc_, count, label);
  }

  /// Runs `body` on all threads of the team (a parallel region), as fibers
  /// on the calling host thread (core::Team).
  void parallel(const std::function<void(ThreadCtx&)>& body);

  /// Maps the application "binary" (size in bytes) and arms the
  /// instruction-stream model on every simulated thread. The paper keeps
  /// code on 4 KB pages (§4.3, the default); `code_kind` allows the
  /// code-page ablation to place the binary in one 2 MB page instead.
  /// No-op without a sim.
  void attach_code_model(std::size_t binary_bytes, count_t jump_period,
                         double cold_fraction,
                         PageKind code_kind = PageKind::small4k);

  /// Ends simulated-time accounting and returns the simulated run time in
  /// seconds (0 when no simulation is attached). Idempotent.
  double finish_seconds();

  // --- access to the substrates (profiling, tests, benches) ---------------
  sim::Machine* machine() { return machine_ ? machine_.get() : nullptr; }
  const sim::Machine* machine() const { return machine_.get(); }
  mem::AddressSpace& space() { return *space_; }
  mem::PhysMem& phys_mem() { return *phys_; }
  mem::HugeTlbFs* hugetlb() { return hugetlbfs_.get(); }
  SharedAllocator& shared_allocator() { return *alloc_; }

 private:
  friend class ThreadCtx;
  /// The team of the running region (ThreadCtx's barrier and reductions).
  Team& team() { return *team_; }

  RuntimeConfig config_;
  std::unique_ptr<mem::PhysMem> phys_;
  std::unique_ptr<mem::AddressSpace> space_;
  std::unique_ptr<mem::HugeTlbFs> hugetlbfs_;
  std::unique_ptr<SharedAllocator> alloc_;
  std::unique_ptr<sim::Machine> machine_;
  SenseBarrier barrier_;
  std::unique_ptr<Team> team_;  ///< built by the first parallel()
  std::optional<mem::Region> text_region_;
};

inline unsigned ThreadCtx::nthreads() const { return rt_->num_threads(); }

template <typename T, typename Op>
T ThreadCtx::reduce(T local, Op op) {
  static_assert(std::is_trivially_copyable_v<T> &&
                    sizeof(T) <= Team::kReduceSlotBytes,
                "reduction type must fit a reduce slot");
  Team& team = rt_->team();
  std::memcpy(team.reduce_slot(tid_), &local, sizeof(T));
  barrier();
  if (tid_ == 0) {
    T acc;
    std::memcpy(&acc, team.reduce_slot(0), sizeof(T));
    for (unsigned t = 1; t < nthreads(); ++t) {
      T v;
      std::memcpy(&v, team.reduce_slot(t), sizeof(T));
      acc = op(acc, v);
    }
    // Broadcast into every thread's own slot: after the barrier each thread
    // reads only its slot, so a fast thread starting the next reduction
    // cannot clobber a value another thread is still about to read.
    for (unsigned t = 0; t < nthreads(); ++t) {
      std::memcpy(team.reduce_slot(t), &acc, sizeof(T));
    }
  }
  barrier();
  T result;
  std::memcpy(&result, team.reduce_slot(tid_), sizeof(T));
  return result;
}

}  // namespace lpomp::core

// Instrumented shared arrays — the lpomp equivalent of Omni's transformed
// global arrays. A shared_array<T> owns a block from the SharedAllocator;
// per-thread Accessors perform the real load/store on the host bytes while
// reporting the access (at its simulated address, with the region's page
// kind) to that thread's simulation engine.
//
// Setup and verification code can use the uninstrumented raw interface;
// everything inside timed parallel regions should go through an Accessor.
#pragma once

#include <type_traits>

#include "core/allocator.hpp"
#include "sim/thread_sim.hpp"
#include "support/error.hpp"

namespace lpomp::core {

template <typename T>
class SharedArray;

/// A thread's instrumented view of one SharedArray. Cheap to copy; holds no
/// ownership. With a null ThreadSim (simulation disabled) it degenerates to
/// plain array access.
template <typename T>
class Accessor {
 public:
  static_assert(std::is_trivially_copyable_v<T>,
                "shared arrays hold plain data");

  Accessor() = default;

  T load(std::size_t i) const {
    if (sim_ != nullptr) {
      sim_->touch(base_ + i * sizeof(T), kind_, Access::load);
    }
    return host_[i];
  }

  void store(std::size_t i, const T& value) const {
    if (sim_ != nullptr) {
      sim_->touch(base_ + i * sizeof(T), kind_, Access::store);
    }
    host_[i] = value;
  }

  /// Report an access to the simulator without touching the host bytes —
  /// for code that computes on a raw() view but still owes the memory
  /// system its traffic (e.g. the ADI line-solver scratch).
  void touch_only(std::size_t i, Access access) const {
    if (sim_ != nullptr) sim_->touch(base_ + i * sizeof(T), kind_, access);
  }

  /// Report `n` consecutive element accesses i, i+1, ... without touching
  /// the host bytes — identical traffic to the loop of touch_only calls,
  /// delivered to the simulator as one bulk run. Usable only when the loop
  /// being replaced really is n consecutive touches of this array with
  /// nothing else interleaved (event order is part of the model).
  void touch_run_only(std::size_t i, std::size_t n, Access access) const {
    if (sim_ == nullptr || n == 0) return;
    if constexpr (sizeof(T) == sizeof(double)) {
      sim_->touch_run(base_ + i * sizeof(T), n, kind_, access);
    } else {
      sim_->touch_strided(base_ + i * sizeof(T), n, sizeof(T), kind_, access);
    }
  }

  /// Report `n` accesses starting at element i and advancing `stride_elems`
  /// (possibly negative) elements per access — the strided analogue of
  /// touch_run_only.
  void touch_strided_only(std::size_t i, std::size_t n,
                          std::int64_t stride_elems, Access access) const {
    if (sim_ == nullptr || n == 0) return;
    sim_->touch_strided(base_ + i * sizeof(T), n,
                        stride_elems * static_cast<std::int64_t>(sizeof(T)),
                        kind_, access);
  }

  /// Uninstrumented host pointer — for loops that pair one touch_run_only
  /// with a tight arithmetic pass over the same elements.
  T* host() const { return host_; }

  /// Charge `cycles` of pure compute alongside this thread's accesses.
  void compute(cycles_t cycles) const {
    if (sim_ != nullptr) sim_->add_compute(cycles);
  }

  std::size_t size() const { return size_; }
  bool instrumented() const { return sim_ != nullptr; }

 private:
  friend class SharedArray<T>;
  Accessor(T* host, vaddr_t base, std::size_t size, PageKind kind,
           sim::ThreadSim* sim)
      : host_(host), base_(base), size_(size), kind_(kind), sim_(sim) {}

  T* host_ = nullptr;
  vaddr_t base_ = 0;
  std::size_t size_ = 0;
  PageKind kind_ = PageKind::small4k;
  sim::ThreadSim* sim_ = nullptr;
};

template <typename T>
class SharedArray {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  SharedArray() = default;

  /// Carves `count` elements from the allocator (the runtime wraps this as
  /// Runtime::alloc_array). They read zero: the pool is fresh anonymous
  /// memory that is never handed out twice, so only the pages the kernel
  /// writes become resident.
  SharedArray(SharedAllocator& alloc, std::size_t count,
              const std::string& label)
      : block_(alloc.allocate(count * sizeof(T), alignof(T) < 64 ? 64 : alignof(T),
                              label)),
        count_(count) {}

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  // --- uninstrumented host access (setup / verification only) -------------
  T* raw() { return reinterpret_cast<T*>(block_.host); }
  const T* raw() const { return reinterpret_cast<const T*>(block_.host); }
  T& operator[](std::size_t i) { return raw()[i]; }
  const T& operator[](std::size_t i) const { return raw()[i]; }

  /// Simulated address of element i.
  vaddr_t sim_addr(std::size_t i = 0) const {
    LPOMP_CHECK(i <= count_);
    return block_.sim_base + i * sizeof(T);
  }
  PageKind page_kind() const { return block_.kind; }

  /// Instrumented view for one simulated thread (nullptr → uninstrumented).
  Accessor<T> accessor(sim::ThreadSim* sim) const {
    return Accessor<T>(reinterpret_cast<T*>(block_.host), block_.sim_base,
                       count_, block_.kind, sim);
  }

 private:
  SharedAllocator::Block block_;
  std::size_t count_ = 0;
};

}  // namespace lpomp::core

#include "core/runtime.hpp"

namespace lpomp::core {

namespace {

std::size_t auto_phys_bytes(const RuntimeConfig& cfg) {
  if (cfg.phys_mem_bytes != 0) return cfg.phys_mem_bytes;
  // Pool + page tables + text + slack, rounded up to the buddy max block.
  const std::size_t want = cfg.shared_pool_bytes + cfg.shared_pool_bytes / 4 +
                           MiB(64);
  const std::size_t max_block = kSmallPageSize
                                << mem::PhysMem::kMaxOrder;
  return (want + max_block - 1) / max_block * max_block;
}

std::size_t auto_pool_pages(const RuntimeConfig& cfg) {
  if (cfg.hugetlb_pool_pages != 0) return cfg.hugetlb_pool_pages;
  return cfg.shared_pool_bytes / kLargePageSize + 4;
}

}  // namespace

Runtime::Runtime(RuntimeConfig config)
    : config_(config), barrier_(config_.num_threads) {
  phys_ = std::make_unique<mem::PhysMem>(auto_phys_bytes(config_));
  space_ = std::make_unique<mem::AddressSpace>(*phys_);

  // Startup preallocation (§3.3): for a 2 MB run, mount the hugetlbfs with
  // a preallocated pool and reserve the shared-image file on it; the
  // allocator then draws every page from that pool.
  mem::FrameSource* source = nullptr;
  if (config_.page_kind == PageKind::large2m) {
    hugetlbfs_ =
        std::make_unique<mem::HugeTlbFs>(*phys_, auto_pool_pages(config_));
    hugetlbfs_->create_file("lpomp_shared_image", config_.shared_pool_bytes);
    source = hugetlbfs_.get();
  }
  alloc_ = std::make_unique<SharedAllocator>(*space_, source,
                                             config_.page_kind,
                                             config_.shared_pool_bytes,
                                             "shared_image");

  if (config_.sim) {
    machine_ = std::make_unique<sim::Machine>(
        config_.sim->spec, config_.sim->cost, *space_, config_.num_threads,
        config_.sim->seed, config_.paging);
    machine_->set_trace_sink(config_.trace_sink);
  }
}

Runtime::~Runtime() {
  // Team joins its workers first (it is destroyed before the structures the
  // workers might reference).
  team_.reset();
  machine_.reset();
  alloc_.reset();  // returns pool pages to the hugetlbfs / buddy
  if (hugetlbfs_) hugetlbfs_->unlink_file("lpomp_shared_image");
  hugetlbfs_.reset();
  space_.reset();
  phys_.reset();
}

void Runtime::parallel(const std::function<void(ThreadCtx&)>& body) {
  // The team's workers start with the first region, so a runtime that
  // never opens one (a trace replay's) starts no host thread.
  if (!team_) team_ = std::make_unique<Team>(config_.num_threads, barrier_);
  if (machine_) machine_->begin_parallel();
  team_->run([this, &body](unsigned tid) {
    ThreadCtx ctx(*this, tid, machine_ ? &machine_->thread(tid) : nullptr);
    body(ctx);
  });
  if (machine_) machine_->end_parallel();
}

void ThreadCtx::barrier() {
  SenseBarrier& b = rt_->team().barrier();
  b.arrive_and_wait(tid_);
  if (sim::Machine* m = rt_->machine(); m != nullptr && tid_ == 0) {
    // Close the sub-region at this synchronisation point: elapsed time is
    // the slowest core's, and the barrier itself costs channel traffic.
    m->end_parallel();
    m->begin_parallel();
  }
  b.arrive_and_wait(tid_);
}

void Runtime::attach_code_model(std::size_t binary_bytes, count_t jump_period,
                                double cold_fraction, PageKind code_kind) {
  if (!machine_) return;
  LPOMP_CHECK_MSG(!text_region_, "code model already attached");
  text_region_ = space_->map_region(binary_bytes, code_kind, "text");
  machine_->attach_code_all(text_region_->base, binary_bytes, code_kind,
                            jump_period, cold_fraction);
}

double Runtime::finish_seconds() {
  if (!machine_) return 0.0;
  machine_->end_run();
  return machine_->seconds();
}

}  // namespace lpomp::core

#include "trace/replay.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "npb/npb.hpp"
#include "sim/machine.hpp"

namespace lpomp::trace {
namespace {

/// The memory substrate of a replay: physical memory, address space and
/// the startup-preallocated shared pool, built with exactly the
/// construction sequence core::Runtime uses so every recorded virtual
/// address translates as it did live.
///
/// The text mapping is *not* materialised: the instruction-stream model
/// only probes the ITLB by page number (never the page table), so only the
/// base address the live mapping would have received matters, and
/// AddressSpace::peek_region_base supplies it without spending frames.
class ReplaySubstrate {
 public:
  ReplaySubstrate(npb::Kernel kernel, npb::Klass klass, PageKind page_kind) {
    // Mirror core::Runtime's construction sequence (PhysMem → AddressSpace
    // → hugetlbfs mount + image file → pool mapping) with the same
    // automatic sizing, so frame assignment and page-table layout match
    // the recording run's exactly.
    core::RuntimeConfig cfg;
    cfg.page_kind = page_kind;
    cfg.shared_pool_bytes = npb::pool_bytes_for(kernel, klass);

    phys_ = std::make_unique<mem::PhysMem>(core::runtime_phys_bytes(cfg));
    space_ = std::make_unique<mem::AddressSpace>(*phys_);
    mem::FrameSource* source = nullptr;
    if (page_kind == PageKind::large2m) {
      hugetlbfs_ = std::make_unique<mem::HugeTlbFs>(
          *phys_, core::runtime_hugetlb_pool_pages(cfg));
      hugetlbfs_->create_file("lpomp_shared_image", cfg.shared_pool_bytes);
      source = hugetlbfs_.get();
    }
    alloc_ = std::make_unique<core::SharedAllocator>(
        *space_, source, page_kind, cfg.shared_pool_bytes, "shared_image");
  }

  ~ReplaySubstrate() {
    // Same teardown order as core::Runtime: pool pages back to their
    // source, then the image file, then the mount.
    alloc_.reset();
    if (hugetlbfs_) hugetlbfs_->unlink_file("lpomp_shared_image");
    hugetlbfs_.reset();
    space_.reset();
    phys_.reset();
  }

  ReplaySubstrate(const ReplaySubstrate&) = delete;
  ReplaySubstrate& operator=(const ReplaySubstrate&) = delete;

  const mem::AddressSpace& space() const { return *space_; }

  /// Base address the live run's text mapping would occupy for this code
  /// page kind.
  vaddr_t code_base(PageKind code_kind) const {
    return space_->peek_region_base(code_kind);
  }

 private:
  std::unique_ptr<mem::PhysMem> phys_;
  std::unique_ptr<mem::AddressSpace> space_;
  std::unique_ptr<mem::HugeTlbFs> hugetlbfs_;
  std::unique_ptr<core::SharedAllocator> alloc_;
};

void apply_boundary(sim::Machine& machine, sim::BoundaryKind kind) {
  switch (kind) {
    case sim::BoundaryKind::begin_parallel: machine.begin_parallel(); break;
    case sim::BoundaryKind::end_parallel: machine.end_parallel(); break;
    case sim::BoundaryKind::end_run: machine.end_run(); break;
  }
}

}  // namespace

ReplayOutcome ReplayDriver::run(const Trace& trace) const {
  const npb::Kernel kernel = or_unknown<TraceError>(
      npb::kernel_from_name(trace.meta.kernel), npb::kKernels,
      trace.meta.kernel);
  const npb::Klass klass = or_unknown<TraceError>(
      npb::klass_from_name(trace.meta.klass), npb::kKlasses, trace.meta.klass);
  const unsigned nthreads = trace.meta.threads;

  if (nthreads == 0) {
    throw TraceError("trace: replay needs at least one thread");
  }
  if (trace.streams.size() != nthreads) {
    throw TraceError("trace: stream count does not match thread count");
  }
  if (nthreads > config_.spec.total_contexts()) {
    throw TraceError("trace: " + std::to_string(nthreads) +
                     " threads exceed hardware contexts of " +
                     config_.spec.name);
  }

  try {
    const ReplaySubstrate substrate(kernel, klass, trace.meta.page_kind);
    sim::Machine machine(config_.spec, config_.cost, substrate.space(),
                         nthreads, config_.seed, config_.paging);
    const npb::CodeModel cm = npb::code_model(kernel);
    machine.attach_code_all(
        substrate.code_base(config_.code_page_kind),
        static_cast<std::size_t>(npb::binary_bytes(kernel)),
        config_.code_page_kind, cm.jump_period, cm.cold_fraction);
    if (config_.resink != nullptr) machine.set_trace_sink(config_.resink);

    // Walk each thread's stream up to its next segment event, then apply
    // the global boundary — the exact order the recording run's Machine
    // observed its counter snapshots in. Every event enters the simulator
    // through the public entry point a live kernel uses, so an attached
    // resink sees live framing.
    std::vector<std::size_t> cursor(nthreads, 0);
    auto feed_segment = [](const std::vector<Event>& stream, std::size_t& i,
                           sim::ThreadSim& sim) {
      for (;; ++i) {
        if (i == stream.size()) {
          throw TraceError("trace: stream ended before its last boundary");
        }
        const Event& ev = stream[i];
        switch (ev.kind) {
          case Event::Kind::segment:
            ++i;
            return;
          case Event::Kind::touch:
            sim.touch(ev.addr, ev.page, ev.access);
            break;
          case Event::Kind::run:
            sim.touch_run(ev.addr, ev.arg, ev.page, ev.access);
            break;
          case Event::Kind::strided:
            sim.touch_strided(ev.addr, ev.arg, ev.stride, ev.page, ev.access);
            break;
          case Event::Kind::compute:
            sim.add_compute(ev.arg);
            break;
        }
      }
    };

    for (const sim::BoundaryKind boundary : trace.boundaries) {
      for (unsigned tid = 0; tid < nthreads; ++tid) {
        feed_segment(trace.streams[tid], cursor[tid], machine.thread(tid));
      }
      apply_boundary(machine, boundary);
    }
    for (unsigned tid = 0; tid < nthreads; ++tid) {
      if (cursor[tid] != trace.streams[tid].size()) {
        throw TraceError("trace: events recorded after the last boundary");
      }
    }

    ReplayOutcome out;
    out.simulated_seconds = machine.seconds();
    out.profile = prof::ProfileReport::from_machine(
        machine, trace.meta.kernel + "." + trace.meta.klass);
    out.verified = trace.meta.verified;
    out.checksum = trace.meta.checksum;
    return out;
  } catch (const std::logic_error& e) {
    // A well-framed but inconsistent trace (addresses outside the recorded
    // configuration's mappings, impossible thread ids, ...) trips simulator
    // invariant checks. Surface it as the recoverable trace error it is.
    throw TraceError(std::string("trace: replay rejected by simulator: ") +
                     e.what());
  }
}

}  // namespace lpomp::trace

#include "trace/replay.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "npb/npb.hpp"
#include "sim/machine.hpp"

namespace lpomp::trace {
namespace {

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
    // The runtime a live run of the recorded configuration builds (physical
    // memory, address space, hugetlbfs pool, shared image, text mapping),
    // so every recorded virtual address translates as it did live. It opens
    // no parallel region, so it starts no team thread: the streams drive
    // the machine directly.
    core::RuntimeConfig cfg;
    cfg.num_threads = nthreads;
    cfg.page_kind = trace.meta.page_kind;
    cfg.shared_pool_bytes = npb::pool_bytes_for(kernel, klass);
    cfg.code_page_kind = config_.code_page_kind;
    cfg.paging = config_.paging;
    cfg.sim = core::SimConfig{config_.spec, config_.cost, config_.seed};
    cfg.trace_sink = config_.resink;
    core::Runtime rt(cfg);
    const npb::CodeModel cm = npb::code_model(kernel);
    rt.attach_code_model(static_cast<std::size_t>(npb::binary_bytes(kernel)),
                         cm.jump_period, cm.cold_fraction,
                         config_.code_page_kind);
    sim::Machine& machine = *rt.machine();

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

    // The trace's own end_run boundary has been applied: read the time
    // directly (finish_seconds would send the resink a second end_run).
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

// Access-trace capture interface.
//
// A TraceSink observes the exact event stream a simulated run feeds the
// machine model: every instrumented data access and compute charge of every
// thread (in that thread's program order), plus the global fork-join region
// boundaries. Together these determine the entire machine-model outcome —
// the TLB/cache/prefetcher state evolves only from touches, and the
// fork-join time accounting reads counter snapshots only at boundaries — so
// a recorded stream can be replayed through a freshly built machine and
// reproduce every counter bit-identically (src/trace implements exactly
// that).
//
// The interface lives in sim (not src/trace) so the hot simulation layer
// depends only on this abstract class; the recorder and the replayer stay
// in the lpomp_trace module. ThreadSim and Machine hold a plain TraceSink*: a null
// sink costs one predictable branch per event, an attached one a virtual
// call.
//
// Threading contract: on_touch/on_touch_run/on_touch_strided/on_compute for
// thread `tid` are called only from the host thread driving simulated
// thread `tid`; on_boundary is called only while all simulated threads are
// quiescent at a barrier or fork/join point (the same contract under which
// Machine reads per-thread counters), so per-thread sink state needs no
// locking.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/types.hpp"

namespace lpomp::sim {

/// Global fork-join events, in the order Machine applies them.
enum class BoundaryKind : std::uint8_t {
  begin_parallel = 0,
  end_parallel = 1,
  end_run = 2,
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// One ThreadSim::touch on thread `tid`.
  virtual void on_touch(unsigned tid, vaddr_t addr, PageKind kind,
                        Access access) = 0;

  /// One ThreadSim::touch_run (n sequential 8-byte element accesses).
  virtual void on_touch_run(unsigned tid, vaddr_t addr, std::size_t n,
                            PageKind kind, Access access) = 0;

  /// One ThreadSim::touch_strided (n accesses advancing `stride_bytes` per
  /// element; never reported with stride_bytes == 8 — that framing is
  /// canonicalised to on_touch_run).
  virtual void on_touch_strided(unsigned tid, vaddr_t addr, std::size_t n,
                                std::int64_t stride_bytes, PageKind kind,
                                Access access) = 0;

  /// One ThreadSim::add_compute charge.
  virtual void on_compute(unsigned tid, cycles_t cycles) = 0;

  /// A Machine begin_parallel/end_parallel/end_run boundary.
  virtual void on_boundary(BoundaryKind kind) = 0;
};

}  // namespace lpomp::sim

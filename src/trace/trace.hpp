// In-memory representation of a recorded access trace.
//
// A Trace captures everything needed to re-drive the machine simulator
// without re-running the kernel's numerics: one event vector per simulated
// thread, holding each TraceSink call exactly as the live run made it, plus
// the global fork-join boundary sequence that tells the replayer where the
// Machine's time-accounting snapshots fall.
//
// The address stream of an engine-run kernel is fully determined by
// (kernel, class, threads, data-page kind) — platform, cost model, seed and
// code-page kind only change how the *simulator* responds to the stream,
// not the stream itself. trace_key() names that equivalence class; one
// recording serves every platform/cost/flush point of a sweep.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "npb/npb.hpp"
#include "sim/trace_sink.hpp"

namespace lpomp::trace {

/// A trace that cannot be replayed: malformed framing, a configuration it
/// does not fit, or events the simulator rejects. Always recoverable —
/// lpomp::trace throws this, never a bare logic_error.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

/// One recorded stream event: a TraceSink call, or a fork-join boundary.
struct Event {
  enum class Kind : std::uint8_t { touch = 0, run = 1, compute = 2,
                                   strided = 3, segment = 4 };

  Kind kind = Kind::touch;
  PageKind page = PageKind::small4k;
  Access access = Access::load;
  vaddr_t addr = 0;        ///< touch/run/strided: element address
  std::uint64_t arg = 0;   ///< run/strided: element count; compute: cycles
  std::int64_t stride = 8; ///< strided: byte advance per element (run: 8)

  bool operator==(const Event&) const = default;

  static Event touch_ev(vaddr_t addr, PageKind page, Access access) {
    return Event{Kind::touch, page, access, addr, 0};
  }
  static Event run_ev(vaddr_t addr, std::uint64_t n, PageKind page,
                      Access access) {
    return Event{Kind::run, page, access, addr, n};
  }
  static Event strided_ev(vaddr_t addr, std::uint64_t n, std::int64_t stride,
                          PageKind page, Access access) {
    return Event{Kind::strided, page, access, addr, n, stride};
  }
  static Event compute_ev(cycles_t cycles) {
    return Event{Kind::compute, PageKind::small4k, Access::load, 0, cycles};
  }
  static Event segment_ev() { return Event{Kind::segment}; }
};

/// Description of the run a trace was recorded from. kernel/klass/threads/
/// page_kind identify the address stream; the rest is provenance from the
/// recording run (the replayer copies `verified`/`checksum` through, since
/// a replay performs no numerics of its own).
struct TraceMeta {
  std::string kernel;    ///< e.g. "CG"
  std::string klass;     ///< e.g. "R"
  unsigned threads = 0;
  PageKind page_kind = PageKind::small4k;

  // Provenance of the recording run.
  std::string platform;  ///< platform the recorder ran on (informational)
  PageKind code_page_kind = PageKind::small4k;
  std::uint64_t seed = 0;
  bool verified = false;
  double checksum = 0.0;
  std::uint64_t accesses = 0;  ///< total touches recorded (sanity check)
};

struct Trace {
  TraceMeta meta;
  /// One event vector per simulated thread (meta.threads many).
  std::vector<std::vector<Event>> streams;
  /// Global fork-join boundary sequence, in machine order. Every stream
  /// carries exactly one segment event per entry here.
  std::vector<sim::BoundaryKind> boundaries;

  std::string key() const;

  /// Approximate in-memory footprint of the event vectors.
  std::size_t bytes() const;
};

/// Canonical store key of the address-stream equivalence class,
/// e.g. "CG.R/4T/2MB".
std::string trace_key(std::string_view kernel, std::string_view klass,
                      unsigned threads, PageKind page_kind);

}  // namespace lpomp::trace

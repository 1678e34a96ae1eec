// In-memory representation of a recorded access trace.
//
// A Trace captures everything needed to re-drive the machine simulator
// without re-running the kernel's numerics: the per-thread compressed event
// streams (see codec.hpp) plus the global fork-join boundary sequence that
// tells the replayer where the Machine's time-accounting snapshots fall.
//
// The address stream of an engine-run kernel is fully determined by
// (kernel, class, threads, data-page kind) — platform, cost model, seed and
// code-page kind only change how the *simulator* responds to the stream,
// not the stream itself. trace_key() names that equivalence class; one
// recording serves every platform/cost/flush point of a sweep.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "npb/npb.hpp"
#include "sim/trace_sink.hpp"
#include "trace/codec.hpp"

namespace lpomp::trace {

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
  /// One compressed event stream per simulated thread (meta.threads many).
  std::vector<std::string> streams;
  /// Global fork-join boundary sequence, in machine order. Every stream
  /// carries exactly one SEGMENT marker per entry here.
  std::vector<sim::BoundaryKind> boundaries;

  std::string key() const;

  /// Approximate in-memory footprint of the encoded streams.
  std::size_t bytes() const;
};

/// Canonical store key of the address-stream equivalence class,
/// e.g. "CG.R/4T/2MB".
std::string trace_key(std::string_view kernel, std::string_view klass,
                      unsigned threads, PageKind page_kind);

}  // namespace lpomp::trace

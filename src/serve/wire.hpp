// Wire format of the sweep service: how a client's SweepSpec crosses the
// shared-memory ring and how the daemon's answer comes back.
//
// Requests are one line of text — `lpomp-req-v1;key=value;...` — because a
// sweep spec is a handful of enums and integer lists, and a format that can
// be typed into a terminal, logged verbatim, and diffed is worth more than
// a binary layout here (the payloads are bytes, the runs are seconds).
// Field order is canonical (encode always emits the same order), so equal
// requests are byte-equal.
//
// Responses are JSON:
//
//   {"schema":"lpomp-serve-v1","status":"ok",
//    "result":        <SweepResult::to_json(true)>,   // host telemetry
//    "deterministic": <SweepResult::to_json(false)>}  // byte-stable
//
// or {"schema":"lpomp-serve-v1","status":"error","message":"..."}.
//
// "deterministic" repeats the runs without host fields precisely so that a
// cold run, a warm (store-hit) run, and a run served by a restarted daemon
// can be compared byte-for-byte by dumb tooling (the CI smoke job diffs
// exactly this member).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/scheduler.hpp"
#include "exec/strategy.hpp"
#include "exec/sweep.hpp"
#include "npb/npb.hpp"

namespace lpomp::serve {

/// Malformed request/response text. The daemon maps this to an error
/// response; a client maps it to a failed submission — never a crash.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A client's sweep submission: the SweepSpec axes by name (platforms stay
/// symbolic — "opteron"/"xeon" — so the daemon owns the ProcessorSpec
/// tables) plus the execution strategy ("live" or "auto"; both run the same
/// live path, see exec/strategy.hpp).
struct SweepRequest {
  std::vector<npb::Kernel> kernels = npb::all_kernels();
  npb::Klass klass = npb::Klass::S;
  std::vector<std::string> platforms = {"opteron", "xeon"};
  std::vector<unsigned> threads = {1, 2, 4, 8};
  std::vector<PageKind> page_kinds = {PageKind::small4k, PageKind::large2m};
  PageKind code_page_kind = PageKind::small4k;
  /// Paging-policy axis by canonical name ("native", "base4k", "hugetlb2m",
  /// "huge1g", "thp"). The default single native entry is encoded as an
  /// absent field, so old daemons still accept policy-free requests.
  std::vector<std::string> paging = {"native"};
  std::uint64_t base_seed = 0x5eedULL;
  bool per_task_seeds = false;
  exec::Strategy strategy = exec::Strategy::Auto;

  /// Resolves the symbolic axes into an executable SweepSpec (default cost
  /// model — the daemon serves the reproduction's standard machine table).
  /// Throws WireError on an unknown platform name.
  exec::SweepSpec to_spec() const;
};

/// Canonical one-line encoding (see header comment). encode ∘ decode is the
/// identity on every valid request.
std::string encode_request(const SweepRequest& request);

/// Parses encode_request() output. Throws WireError with a position-free,
/// human-readable reason on anything malformed.
SweepRequest decode_request(const std::string& text);

/// The "ok" response document (see header comment).
std::string encode_response(const exec::SweepResult& result);

/// The "error" response document.
std::string encode_error_response(const std::string& message);

/// Telemetry request: a distinct well-formed line (`lpomp-req-v1;stats=1`)
/// the daemon answers with {"schema":"lpomp-serve-v1","status":"ok",
/// "stats":<SweepService::stats_json()>} instead of running a sweep. Lets
/// clients read queue-depth/throughput counters without SIGTERMing the
/// daemon.
std::string encode_stats_request();

/// True when `text` is exactly the stats request line.
bool is_stats_request(const std::string& text);

/// The stats response document wrapping an already-serialised stats JSON
/// object (see SweepService::stats_json()).
std::string encode_stats_response(const std::string& stats_json);

}  // namespace lpomp::serve

// Per-run observability record: the JSON-serialisable result of one
// RunTask, combining the task's configuration, the simulator's headline
// counters (the same events ProfileReport reports), and host-side
// execution metadata (wall time, cache hit, worker id).
//
// to_json() has two fidelity levels: deterministic-only (golden tests and
// cross-worker-count diffs — bit-identical for identical configs) and
// full (adds host wall time / cache-hit provenance, which legitimately
// differ between invocations).
#pragma once

#include <cstdint>
#include <string>

#include "npb/npb.hpp"

namespace lpomp::exec {

struct RunRecord {
  // --- configuration echo (deterministic) ---------------------------------
  std::string kernel;     ///< "CG"
  std::string klass;      ///< "S"
  std::string platform;   ///< ProcessorSpec::name
  unsigned threads = 0;
  std::string page_kind;  ///< "4KB" / "2MB"
  std::string code_page_kind;
  std::string paging = "native";  ///< paging-policy overlay name
  std::uint64_t seed = 0;
  std::string key_digest;  ///< 16-hex-digit content-key digest

  // --- outcome (deterministic) --------------------------------------------
  bool ok = false;         ///< task ran to completion without throwing
  std::string error;       ///< exception text when !ok
  bool verified = false;   ///< kernel self-verification
  double checksum = 0.0;
  double simulated_seconds = 0.0;

  // Headline simulator counters (the ProfileReport events the figures use).
  count_t cycles = 0;
  count_t accesses = 0;
  count_t l1d_misses = 0;
  count_t l2_misses = 0;
  count_t dtlb_l1_misses = 0;
  count_t dtlb_walks_4k = 0;  ///< full walks, per PageKind — Figure 5's event
  count_t dtlb_walks_2m = 0;
  count_t dtlb_walks_1g = 0;
  count_t itlb_misses = 0;
  count_t walk_levels = 0;
  count_t pwc_hits = 0;  ///< walk levels skipped via the page-walk cache
  count_t long_stalls = 0;

  // --- host-side metadata (non-deterministic; excluded from golden) -------
  bool cache_hit = false;  ///< served from the in-memory LRU
  /// Served from the disk-persistent result store (a warm entry promotes
  /// into the LRU, so at most one of cache_hit/store_hit is set).
  bool store_hit = false;
  double wall_ms = 0.0;
  /// How this result was produced. Every scheduler run is "live" (a full
  /// kernel run); the field stays in the host-side JSON for readers of
  /// older records, which may carry the removed replay tiers' labels.
  std::string trace_source = "live";

  /// True when every deterministic field above matches — the equality the
  /// engine's determinism guarantee (and its tests) are stated in.
  bool same_result(const RunRecord& o) const;

  /// One JSON object. `include_host` adds the non-deterministic fields.
  std::string to_json(bool include_host = true) const;

  /// Parses a record emitted by to_json() (either fidelity level; absent
  /// host fields keep their defaults). Throws JsonError on anything
  /// malformed or missing — the disk store maps that to quarantine.
  static RunRecord from_json(const std::string& json);
};

struct JsonValue;  // exec/json.hpp

/// from_json on an already-parsed value (e.g. a member of a larger store
/// or wire document). Same JsonError contract.
RunRecord record_from_json_value(const JsonValue& doc);

}  // namespace lpomp::exec

// Per-run observability record: the JSON-serialisable result of one
// RunTask, combining the task's configuration, the simulator's headline
// counters (the same events ProfileReport reports), and host-side
// execution metadata (wall time, cache hit, worker id). The counters are
// listed once, in kRecordCounters; every operation over them loops there.
//
// to_json() has two fidelity levels: deterministic-only (golden tests and
// cross-worker-count diffs — bit-identical for identical configs) and
// full (adds host wall time / cache-hit provenance, which legitimately
// differ between invocations).
#pragma once

#include <cstdint>
#include <string>

#include "npb/npb.hpp"
#include "prof/profile.hpp"

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

  // Headline simulator counters (the ProfileReport events the figures
  // use); each has one row in kRecordCounters below.
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

/// One headline counter of a RunRecord.
struct RecordCounter {
  const char* key;    ///< JSON key in the "counters" object
  const char* event;  ///< the ProfileReport event it copies
  count_t RunRecord::*member;
  bool optional;  ///< records written before the counter existed lack it
};

/// Every headline counter, in JSON order: same_result, to_json, from_json
/// and Scheduler::execute_task loop over this table, so a new counter is a
/// RunRecord member plus one row here.
inline constexpr RecordCounter kRecordCounters[] = {
    {"cycles", prof::ProfileReport::kCycles, &RunRecord::cycles, false},
    {"accesses", prof::ProfileReport::kAccesses, &RunRecord::accesses, false},
    {"l1d_misses", prof::ProfileReport::kL1dMiss, &RunRecord::l1d_misses,
     false},
    {"l2_misses", prof::ProfileReport::kL2Miss, &RunRecord::l2_misses, false},
    {"dtlb_l1_misses", prof::ProfileReport::kDtlbL1Miss,
     &RunRecord::dtlb_l1_misses, false},
    {"dtlb_walks_4k", prof::ProfileReport::kDtlbWalk4k,
     &RunRecord::dtlb_walks_4k, false},
    {"dtlb_walks_2m", prof::ProfileReport::kDtlbWalk2m,
     &RunRecord::dtlb_walks_2m, false},
    {"dtlb_walks_1g", prof::ProfileReport::kDtlbWalk1g,
     &RunRecord::dtlb_walks_1g, true},
    {"itlb_misses", prof::ProfileReport::kItlbMiss, &RunRecord::itlb_misses,
     false},
    {"walk_levels", prof::ProfileReport::kWalkLevels, &RunRecord::walk_levels,
     false},
    {"pwc_hits", prof::ProfileReport::kPwcHits, &RunRecord::pwc_hits, true},
    {"long_stalls", prof::ProfileReport::kLongStalls, &RunRecord::long_stalls,
     false},
};

struct JsonValue;  // exec/json.hpp

/// from_json on an already-parsed value (e.g. a member of a larger store
/// or wire document). Same JsonError contract.
RunRecord record_from_json_value(const JsonValue& doc);

}  // namespace lpomp::exec

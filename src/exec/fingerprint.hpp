// Content keys for the result cache.
//
// A run's result is a pure function of its RunTask: kernel, class,
// ProcessorSpec geometry, CostModel parameters, thread count, page kinds
// and seed. The cache key is a canonical serialisation of all of those
// fields — keying on content (rather than, say, a task index) means a
// repeated sweep, a reordered grid, or an overlapping grid (Figure 5's
// points are a subset of Figure 4's) all hit the same entries, while any
// change to a cost parameter or TLB geometry transparently misses.
//
// The canonical string is the key (so equal keys imply equal configs — no
// hash-collision risk of serving a wrong cached result); digest64() gives a
// short FNV-1a identity for display in JSON records and logs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "exec/sweep.hpp"

namespace lpomp::exec {

/// Canonical, complete serialisation of everything a run's result depends
/// on. Stable across processes for identical configs.
std::string cache_key(const RunTask& task);

/// The cache key of the simulation `task` runs: cache_key of `task` with
/// its policy replaced by task.simulated_paging(). nullopt when that leaves
/// the policy as it is, so cache_key(task) is that key.
/// Tasks with equal simulation keys have equal outcomes.
std::optional<std::string> shared_key(const RunTask& task);

/// 64-bit FNV-1a digest of a key string, for compact display.
std::uint64_t digest64(const std::string& key);

/// digest64 rendered as 16 hex digits.
std::string digest_hex(const std::string& key);

}  // namespace lpomp::exec

// Execution strategies for the scheduler core.
//
// Every uncached grid point runs live: the kernel executes with the machine
// simulator attached, and its record is committed to the result cache. The
// enum survives as the wire and CLI spelling of that one path:
//
//   live      every task runs the full kernel, no traces involved
//   auto      the scheduler's choice (today: live)
//
// The replay tiers that used to sit here (recorded, multilane, analytic)
// never beat the live run on a measured grid and were removed; DESIGN.md
// ("Replay tiers: measured, removed, why") has the numbers.
#pragma once

#include <optional>
#include <string_view>

namespace lpomp::exec {

enum class Strategy { Live, Auto };

constexpr const char* strategy_name(Strategy s) {
  return s == Strategy::Live ? "live" : "auto";
}

/// Parses the CLI/wire spelling ("live", "auto"); nullopt for anything
/// else, including the removed tiers — callers print their own usage.
inline std::optional<Strategy> strategy_from_name(std::string_view name) {
  if (name == "live") return Strategy::Live;
  if (name == "auto") return Strategy::Auto;
  return std::nullopt;
}

/// The valid spellings, for usage and error messages.
constexpr const char* kStrategyNames = "live, auto";

}  // namespace lpomp::exec

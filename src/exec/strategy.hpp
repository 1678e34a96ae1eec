// Execution strategies for the scheduler core.
//
// Every uncached grid point runs live: the kernel executes with the machine
// simulator attached, and its record is committed to the result cache. The
// enum survives as the wire spelling of that one path (no driver takes a
// strategy option; perfbench and the daemon's requests still name one):
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

#include "support/names.hpp"

namespace lpomp::exec {

enum class Strategy { Live, Auto };

/// The name table of the wire spelling, in enum order.
inline constexpr NameTable<Strategy, 2> kStrategies{"strategy",
                                                    {"live", "auto"}};

constexpr const char* strategy_name(Strategy s) { return kStrategies.name(s); }

/// Parses the CLI/wire spelling; nullopt for anything else, including the
/// removed tiers.
inline std::optional<Strategy> strategy_from_name(std::string_view name) {
  return kStrategies.parse(name);
}

}  // namespace lpomp::exec

// PC: pointer-chasing over a linked list laid out as a single-cycle
// permutation (Sattolo's algorithm). Every load's address is the value of
// the previous load, so every access is a single touch, never a run, and
// no prefetcher can look ahead — the pure
// dependent-chain limit of the irregular-workload axis.
#pragma once

#include "npb/npb.hpp"

namespace lpomp::npb {

/// Runs PC at `klass` on `rt`; fills verification and checksum fields
/// (profile and timing are added by the dispatcher).
NpbResult run_pc(core::Runtime& rt, Klass klass);

}  // namespace lpomp::npb

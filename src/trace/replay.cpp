#include "trace/replay.hpp"

#include "trace/lane.hpp"

namespace lpomp::trace {

ReplayOutcome ReplayDriver::run(const Trace& trace) const {
  // A single-lane replay is the one-lane case of the multi-lane driver:
  // same validation, same decode loop, same substrate — kept as the
  // convenience entry point every existing caller and test uses.
  return MultiReplayDriver({config_}).run(trace).front();
}

}  // namespace lpomp::trace

// SweepClient — the client side of the sweep service.
//
// Opens the daemon's shared-memory ring, allocates itself a client id from
// the ring header, and turns submit() into the slot protocol described in
// ring.hpp: claim a Free slot (CAS, with a deadline — the fixed slot count
// is the admission bound), write the encoded request, publish, poll for
// the response, free the slot. The whole round trip is two memcpys and a
// handful of atomics on top of whatever the daemon does; when the daemon
// answers from its persistent store the total is microseconds.
//
// Every failure mode is an exception with a reason: no daemon / wrong
// segment (RingError from open), ring full past the deadline, daemon died
// mid-wait, response timeout. A timeout gives its slot back (withdrawn,
// or freed by the daemon once answered); only a client that dies holding a
// slot leaves it claimed until the next daemon start recreates the
// segment.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "serve/ring.hpp"
#include "serve/wire.hpp"

namespace lpomp::serve {

/// submit() failure: ring saturated past the deadline, daemon gone, or the
/// daemon answered with status=error (the message is the error document's
/// text).
class ClientError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SweepClient {
 public:
  /// Opens the ring (RingError when absent/incompatible) and allocates a
  /// client id.
  explicit SweepClient(const std::string& shm_name);

  std::uint32_t client_id() const { return client_id_; }

  /// One request/response round trip. Returns the raw response JSON
  /// (status "ok" documents as-is); throws ClientError on saturation,
  /// daemon death, deadline expiry, or a status "error" response.
  std::string submit(const SweepRequest& request,
                     std::chrono::milliseconds deadline =
                         std::chrono::milliseconds(120000));

  /// Telemetry round trip: sends the stats request line and returns the
  /// daemon's {"schema":...,"status":"ok","stats":{...}} document. Same
  /// failure modes as submit(); the short default deadline reflects that
  /// answering never runs a sweep.
  std::string stats(std::chrono::milliseconds deadline =
                        std::chrono::milliseconds(10000));

 private:
  /// The slot protocol shared by submit() and stats(): claim, publish
  /// `text`, await, free. Returns the raw response payload.
  std::string round_trip(const std::string& text,
                         std::chrono::milliseconds deadline);

  ShmRing ring_;
  std::uint32_t client_id_ = 0;
  std::uint64_t sequence_ = 0;
};

}  // namespace lpomp::serve

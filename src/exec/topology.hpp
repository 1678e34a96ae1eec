// Topology — the socket × core shape the pool reasons about.
//
// The pool's workers are grouped into *domains* (one per socket): steals
// prefer same-domain victims so a task's working set tends to stay on the
// memory node that first touched it. The shape comes from one of two
// places:
//
//   * `--topology=SxC` (tests, CI, benchmarks) — an explicit, deterministic
//     shape independent of the host, so identity checks like
//     "--workers=4 --topology=2x2 equals --workers=1" mean the same thing
//     on every machine;
//   * detection — sysfs physical_package_id enumeration, falling back to a
//     flat 1×N shape when sysfs is absent (containers) or the worker count
//     does not divide evenly across packages.
#pragma once

#include <string>

namespace lpomp::exec {

struct Topology {
  unsigned sockets = 0;           ///< 0 → unspecified (resolve at pool build)
  unsigned cores_per_socket = 0;

  bool specified() const { return sockets > 0 && cores_per_socket > 0; }
  unsigned workers() const { return sockets * cores_per_socket; }
  unsigned domains() const { return sockets; }
  /// Domain (socket) of a worker index; workers are numbered socket-major,
  /// so domain d owns workers [d*cores_per_socket, (d+1)*cores_per_socket).
  unsigned domain_of(unsigned worker) const {
    return (worker / cores_per_socket) % sockets;
  }
  std::string name() const;  ///< "SxC", or "auto" when unspecified

  /// Parses "SxC" (e.g. "2x4"); throws std::invalid_argument on anything
  /// else, including zero counts.
  static Topology parse(const std::string& text);
  static Topology flat(unsigned workers) { return Topology{1, workers}; }
  /// Host shape for `workers` threads: sysfs package enumeration when it
  /// divides the worker count evenly, flat otherwise.
  static Topology detect(unsigned workers);
  /// The shape a pool built from (requested, workers) actually uses: an
  /// explicit request wins (and fixes the worker count); otherwise the
  /// worker count is resolved (0 → host hardware threads) and detected.
  static Topology resolve(const Topology& requested, unsigned workers);
};

}  // namespace lpomp::exec

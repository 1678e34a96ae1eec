#include "exec/topology.hpp"

#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

namespace lpomp::exec {

std::string Topology::name() const {
  if (!specified()) return "auto";
  return std::to_string(sockets) + "x" + std::to_string(cores_per_socket);
}

Topology Topology::parse(const std::string& text) {
  const std::size_t x = text.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= text.size()) {
    throw std::invalid_argument("topology: expected SxC, got '" + text + "'");
  }
  auto field = [&text](std::size_t begin, std::size_t end) -> unsigned {
    unsigned value = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const char c = text[i];
      if (c < '0' || c > '9') {
        throw std::invalid_argument("topology: expected SxC, got '" + text +
                                    "'");
      }
      value = value * 10 + static_cast<unsigned>(c - '0');
      if (value > 4096) {
        throw std::invalid_argument("topology: shape too large: '" + text +
                                    "'");
      }
    }
    return value;
  };
  Topology t;
  t.sockets = field(0, x);
  t.cores_per_socket = field(x + 1, text.size());
  if (t.sockets == 0 || t.cores_per_socket == 0) {
    throw std::invalid_argument("topology: zero-sized shape: '" + text + "'");
  }
  return t;
}

Topology Topology::detect(unsigned workers) {
  if (workers == 0) workers = 1;
  // Count distinct physical packages among the first `workers` host CPUs.
  // Absent sysfs (sandboxes, containers) or an uneven split both fall back
  // to the flat shape — a 1-socket view is always correct, just blind.
  std::set<long> packages;
  for (unsigned cpu = 0; cpu < workers; ++cpu) {
    std::ifstream in("/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
                     "/topology/physical_package_id");
    long id = -1;
    if (!(in >> id)) return flat(workers);
    packages.insert(id);
  }
  const auto sockets = static_cast<unsigned>(packages.size());
  if (sockets == 0 || workers % sockets != 0) return flat(workers);
  return Topology{sockets, workers / sockets};
}

Topology Topology::resolve(const Topology& requested, unsigned workers) {
  if (requested.specified()) return requested;
  return detect(workers == 0 ? host_threads() : workers);
}

unsigned Topology::host_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace lpomp::exec

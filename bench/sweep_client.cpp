// sweep_client — thin client for the sweep_service daemon.
//
//   sweep_client [--shm=/lpomp-sweep] [--kernels=CG,MG] [--klass=S]
//                [--platforms=opteron,xeon,modern] [--threads=1,2,4,8]
//                [--pages=4KB,2MB] [--code-pages=4KB]
//                [--paging=native,hugetlb2m,huge1g,thp] [--seed=N]
//                [--per-task-seeds]
//                [--repeat=1] [--timeout-ms=120000] [--json=FILE] [--quiet]
//   sweep_client --stats [--shm=/lpomp-sweep]
//
// Encodes the sweep as one request line, submits it over the daemon's
// shared-memory ring, and prints the response JSON to stdout (or --json=).
// A grid the daemon has already computed comes back from its persistent
// store in microseconds — --repeat=N resubmits the identical request and
// reports min/mean round-trip latency on stderr, which is how the CI smoke
// job asserts the warm path stays sub-millisecond.
//
// --stats skips the sweep entirely and prints the daemon's telemetry
// document (ring counters, queue-depth peak, persistent-store stats) —
// the read-only probe that used to require SIGTERMing the daemon to see.
//
// Exit status: 0 on an "ok" response, 1 on a daemon-side error response,
// 2 on local failures (no daemon, ring saturated, malformed flags).
#include <chrono>
#include <iostream>

#include "bench/bench_common.hpp"
#include "serve/client.hpp"

using namespace lpomp;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"stats", "shm", "timeout-ms", "kernels", "klass",
                      "platforms", "threads", "pages", "code-pages", "paging",
                      "seed", "per-task-seeds", "repeat", "json", "quiet"});

  // A round-trip deadline of at least 1 ms and at most a day.
  const auto timeout = [&opts](std::uint64_t def_ms) {
    return std::chrono::milliseconds(static_cast<std::int64_t>(
        opts.get_unsigned("timeout-ms", def_ms, 86'400'000, /*min=*/1)));
  };

  if (opts.get_flag("stats")) {
    const std::chrono::milliseconds deadline = timeout(10000);
    try {
      serve::SweepClient client(opts.get("shm", "/lpomp-sweep"));
      std::cout << client.stats(deadline) << "\n";
    } catch (const std::exception& e) {
      std::cerr << "sweep_client: " << e.what() << "\n";
      return 2;
    }
    return 0;
  }

  serve::SweepRequest request;
  request.kernels = bench::kernels_from(opts);
  request.klass = bench::klass_from(opts, "S");
  request.platforms = split_list(opts.get("platforms", "opteron,xeon"));
  request.threads.clear();
  for (const std::string& t : split_list(opts.get("threads", "1,2,4,8"))) {
    request.threads.push_back(static_cast<unsigned>(Options::to_unsigned(
        "threads", t, std::numeric_limits<unsigned>::max(), /*min=*/1)));
  }
  request.page_kinds = opts.get_names("pages", "4KB,2MB", page_kind_from_name,
                                      kLayoutPageKinds);
  request.code_page_kind = bench::page_kind_from(opts, "code-pages");
  request.paging = split_list(opts.get("paging", "native"));
  request.base_seed = opts.get_unsigned("seed", 0x5eed);
  request.per_task_seeds = opts.get_flag("per-task-seeds");

  const std::uint64_t repeat =
      opts.get_unsigned("repeat", 1, 100000, /*min=*/1);
  const std::chrono::milliseconds deadline = timeout(120000);

  try {
    (void)request.to_spec();  // a bad platform or policy exits 2 here
    serve::SweepClient client(opts.get("shm", "/lpomp-sweep"));
    std::string response;
    double min_us = 0.0;
    double total_us = 0.0;
    for (std::uint64_t i = 0; i < repeat; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      response = client.submit(request, deadline);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      total_us += us;
      if (i == 0 || us < min_us) min_us = us;
    }

    const std::string path = opts.get("json", "");
    if (!path.empty()) {
      std::ofstream os(path);
      if (!os) {
        std::cerr << "cannot write --json=" << path << "\n";
        return 2;
      }
      os << response << "\n";
    } else if (!opts.get_flag("quiet")) {
      std::cout << response << "\n";
    }
    if (repeat > 1) {
      std::cerr << "sweep_client: " << repeat << " round trips, min "
                << format_ratio(min_us) << "us, mean "
                << format_ratio(total_us / static_cast<double>(repeat)) << "us\n";
    }
  } catch (const serve::ClientError& e) {
    std::cerr << "sweep_client: " << e.what() << "\n";
    // A daemon-side error response is a successful round trip that carried
    // bad news; everything else is a local/transport failure.
    return std::string(e.what()).rfind("daemon error:", 0) == 0 ? 1 : 2;
  } catch (const std::exception& e) {
    std::cerr << "sweep_client: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

// sweep_client — thin client for the sweep_service daemon.
//
//   sweep_client [--shm=/lpomp-sweep] [--kernels=CG,MG] [--klass=S]
//                [--platforms=opteron,xeon,modern] [--threads=1,2,4,8]
//                [--pages=4KB,2MB] [--code-pages=4KB]
//                [--paging=native,hugetlb2m,huge1g,thp] [--seed=N]
//                [--per-task-seeds]
//                [--strategy=live|auto]
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

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t pos = text.find(',', start);
    if (pos == std::string::npos) pos = text.size();
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);

  if (opts.get_flag("stats")) {
    try {
      serve::SweepClient client(opts.get("shm", "/lpomp-sweep"));
      std::cout << client.stats(std::chrono::milliseconds(
                       opts.get_int("timeout-ms", 10000)))
                << "\n";
    } catch (const std::exception& e) {
      std::cerr << "sweep_client: " << e.what() << "\n";
      return 2;
    }
    return 0;
  }

  serve::SweepRequest request;
  request.kernels = bench::kernels_from(opts);
  request.klass = bench::klass_by_name(opts.get("klass", "S"));
  request.platforms = split_csv(opts.get("platforms", "opteron,xeon"));
  request.threads.clear();
  for (const std::string& t : split_csv(opts.get("threads", "1,2,4,8"))) {
    request.threads.push_back(static_cast<unsigned>(std::stoul(t)));
  }
  request.page_kinds.clear();
  for (const std::string& p : split_csv(opts.get("pages", "4KB,2MB"))) {
    if (p == "4KB") {
      request.page_kinds.push_back(PageKind::small4k);
    } else if (p == "2MB") {
      request.page_kinds.push_back(PageKind::large2m);
    } else {
      std::cerr << "unknown page kind '" << p << "' (valid: 4KB, 2MB)\n";
      return 2;
    }
  }
  request.code_page_kind =
      opts.get("code-pages", "4KB") == "2MB" ? PageKind::large2m
                                             : PageKind::small4k;
  request.paging = split_csv(opts.get("paging", "native"));
  request.base_seed =
      static_cast<std::uint64_t>(opts.get_int("seed", 0x5eed));
  request.per_task_seeds = opts.get_flag("per-task-seeds");
  request.strategy = bench::strategy_from(opts);

  const long repeat = std::max<long>(1, opts.get_int("repeat", 1));
  const std::chrono::milliseconds deadline(
      opts.get_int("timeout-ms", 120000));

  try {
    serve::SweepClient client(opts.get("shm", "/lpomp-sweep"));
    std::string response;
    double min_us = 0.0;
    double total_us = 0.0;
    for (long i = 0; i < repeat; ++i) {
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

// Ablation for §3.3 "Large Page Allocation": startup preallocation (the
// paper's design) versus on-demand huge-page allocation from the buddy
// allocator, under increasing physical-memory fragmentation.
//
// The experiment fragments simulated physical memory by allocating a large
// population of 4 KB frames and freeing a random fraction, then compares:
//   (a) pool take  — O(1) pop from a hugetlbfs pool reserved at boot;
//   (b) on-demand  — buddy allocation of a 2 MB block at request time:
//       allocation work (list probes + splits) grows and eventually the
//       request *fails* outright because no aligned 512-frame run exists.
// This is why "preallocation of large pages is likely to reduce the
// complexity of the allocation algorithm and also the latency" (paper
// §3.3) — and why the runtime reserves its whole shared image at startup.
#include "mem/hugetlbfs.hpp"
#include "support/format.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

#include <iostream>
#include <vector>

using namespace lpomp;

namespace {

struct TrialResult {
  double avg_work = 0.0;
  std::size_t failures = 0;
  std::size_t attempts = 0;
};

/// Fragments `pm` by allocating `total_frames` 4 KB frames and freeing a
/// `free_fraction` random subset.
std::vector<paddr_t> fragment(mem::PhysMem& pm, std::size_t total_frames,
                              double free_fraction, Rng& rng) {
  std::vector<paddr_t> held;
  held.reserve(total_frames);
  for (std::size_t i = 0; i < total_frames; ++i) {
    auto f = pm.alloc_small_frame();
    if (!f) break;
    held.push_back(*f);
  }
  // Free a random subset (Fisher-Yates prefix).
  const auto to_free =
      static_cast<std::size_t>(free_fraction * static_cast<double>(held.size()));
  for (std::size_t i = 0; i < to_free; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(
                                  rng.next_below(held.size() - i));
    std::swap(held[i], held[j]);
    pm.return_block(held[i], 0);
  }
  held.erase(held.begin(), held.begin() + static_cast<long>(to_free));
  return held;
}

TrialResult on_demand_trial(double fill, double free_fraction,
                            std::size_t requests) {
  mem::PhysMem pm(GiB(1));
  Rng rng(0xAB1E5EEDULL);
  const auto frames = static_cast<std::size_t>(
      fill * static_cast<double>(pm.total_bytes() / kSmallPageSize));
  const std::vector<paddr_t> held = fragment(pm, frames, free_fraction, rng);

  pm.reset_stats();
  TrialResult result;
  result.attempts = requests;
  std::vector<paddr_t> got;
  for (std::size_t i = 0; i < requests; ++i) {
    auto block = pm.alloc_huge_frame();
    if (!block) {
      ++result.failures;
    } else {
      got.push_back(*block);
    }
  }
  result.avg_work = requests
                        ? static_cast<double>(pm.stats().total_alloc_work) /
                              static_cast<double>(requests)
                        : 0.0;
  for (paddr_t b : got) pm.return_block(b, mem::PhysMem::kHugeOrder);
  for (paddr_t f : held) pm.return_block(f, 0);
  return result;
}

TrialResult pool_trial(std::size_t requests) {
  // Pool reserved at "boot", before any fragmentation exists.
  mem::PhysMem pm(GiB(1));
  mem::HugeTlbFs fs(pm, requests);
  TrialResult result;
  result.attempts = requests;
  std::vector<paddr_t> got;
  for (std::size_t i = 0; i < requests; ++i) {
    auto block = fs.take_block(mem::PhysMem::kHugeOrder);
    if (!block) {
      ++result.failures;
    } else {
      got.push_back(*block);
    }
  }
  result.avg_work = 1.0;  // O(1) pop per page
  for (paddr_t b : got) fs.return_block(b, mem::PhysMem::kHugeOrder);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  opts.require_known({"requests"});
  const auto requests =
      static_cast<std::size_t>(opts.get_unsigned("requests", 64, 100000, 1));

  std::cout << "Ablation (paper §3.3): preallocated hugetlbfs pool vs "
               "on-demand 2MB allocation\nunder fragmentation (1 GiB "
               "simulated physical memory, " << requests
            << " x 2MB requests)\n\n";

  TextTable table({"fill", "freed", "on-demand work/alloc",
                   "on-demand failures", "pool work/alloc", "pool failures"});
  for (double fill : {0.25, 0.50, 0.75, 0.90}) {
    for (double freed : {0.30, 0.60}) {
      const TrialResult od = on_demand_trial(fill, freed, requests);
      const TrialResult pool = pool_trial(requests);
      table.add_row({format_percent(fill), format_percent(freed),
                     format_ratio(od.avg_work),
                     std::to_string(od.failures) + "/" +
                         std::to_string(od.attempts),
                     format_ratio(pool.avg_work),
                     std::to_string(pool.failures) + "/" +
                         std::to_string(pool.attempts)});
    }
  }
  table.print();
  std::cout << "\nConclusion: the boot-time pool never fails and costs O(1) "
               "per page; on-demand\nallocation degrades with fragmentation "
               "and fails outright at high fill — the\npaper's rationale for "
               "preallocating the whole shared image at startup.\n";
  return 0;
}

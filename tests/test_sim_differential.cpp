// Differential oracle for the ThreadSim fast path (DESIGN.md §7).
//
// Three simulators run every randomized access stream in lockstep:
//
//   fast — production ThreadSim, batched fast path enabled (the default);
//   slow — production ThreadSim with set_fast_path(false), i.e. the
//          per-event touch_impl loop on the production structures;
//   ref  — tests/oracle/reference_sim.hpp, a naive single-step simulator
//          with independently written TLB/cache models (per-set scans,
//          no MRU filters, no probe hints, no bulk credits).
//
// After every stream, every counter — ThreadCounters plus the TLB and
// cache structure stats — must agree across all three, and the execution
// and stall cycles that fast and slow derive from their counts must equal
// the cycles ref charged event by event, at 1 and at 4 active threads.
// The generator mixes strides crossing 4 KB and 2 MB boundaries,
// page-kind mixes, periodic multi-slot blocks (a stencil kernel's
// per-point neighbour cycle), interleaved arrays in different sets and
// pages (CG's gather loop), data lines aimed at the L1D sets of a walk's
// PTE lines, TLB flushes (SMT context switches on pre-ASID hardware), and
// in-place superpage promotion; streams run on both of the paper's
// platforms.
//
// Reproduction: every failure message carries the platform, variant,
// stream index, and the per-stream seed. LPOMP_DIFF_SEED overrides the
// base seed, LPOMP_DIFF_STREAMS the stream count, and LPOMP_SEED_CORPUS
// names a file to which every exercised (platform, stream, seed) triple is
// appended (CI uploads it as the differential seed corpus artifact).
//
// The replay path rides the same harness: for randomized recorded streams
// (periodic motifs, strided runs), a ReplayDriver replay on the batched fast
// path must equal the same replay with set_default_fast_path(false)
// counter-for-counter. LPOMP_REPLAY_STREAMS scales that test's stream
// count independently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mem/address_space.hpp"
#include "npb/npb.hpp"
#include "oracle/reference_sim.hpp"
#include "paging/policy.hpp"
#include "sim/processor_spec.hpp"
#include "sim/thread_sim.hpp"
#include "support/rng.hpp"
#include "trace/recorder.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"

namespace lpomp {
namespace {

constexpr std::uint64_t kDefaultBaseSeed = 0xD1FFC0DE5EEDULL;
constexpr int kDefaultStreams = 10000;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("LPOMP_DIFF_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return kDefaultBaseSeed;
}

int stream_count() {
  if (const char* env = std::getenv("LPOMP_DIFF_STREAMS")) {
    return std::atoi(env);
  }
  return kDefaultStreams;
}

/// One simulator trio driven in lockstep.
struct Trio {
  sim::ThreadSim fast;
  sim::ThreadSim slow;
  oracle::RefThreadSim ref;
};

tlb::Tlb::Config slice_tlb(const tlb::Tlb::Config& cfg, unsigned sharers) {
  return tlb::Tlb::Config{cfg.name, cfg.small4k.shared_slice(sharers),
                          cfg.large2m.shared_slice(sharers),
                          cfg.huge1g.shared_slice(sharers)};
}

/// Builds a trio with machine.cpp's sharing-sliced structures.
Trio make_trio(const sim::ProcessorSpec& spec, const sim::CostModel& cm,
               const mem::AddressSpace& space, unsigned core_sharers,
               unsigned l2_sharers, std::uint64_t seed) {
  const tlb::Tlb::Config itlb = slice_tlb(spec.itlb, core_sharers);
  const tlb::Tlb::Config l1_dtlb = slice_tlb(spec.l1_dtlb, core_sharers);
  const std::optional<tlb::Tlb::Config> l2_dtlb =
      spec.l2_dtlb ? std::optional<tlb::Tlb::Config>(
                         slice_tlb(*spec.l2_dtlb, core_sharers))
                   : std::nullopt;
  const cache::CacheGeometry l1d = spec.l1d.shared_slice(core_sharers);
  const cache::CacheGeometry l2 = spec.l2.shared_slice(l2_sharers);
  return Trio{
      sim::ThreadSim(space, itlb, l1_dtlb, l2_dtlb, l1d, l2, seed),
      sim::ThreadSim(space, itlb, l1_dtlb, l2_dtlb, l1d, l2, seed),
      oracle::RefThreadSim(cm, space, itlb, l1_dtlb, l2_dtlb, l1d, l2, seed)};
}

/// Entries held per page kind: the banks' state, which a divergent fill or
/// eviction changes even when no counter has yet.
bool diff_tlb(const tlb::Tlb& a, const oracle::RefTlb& b, std::ostream& os) {
  bool same = true;
  for (PageKind k : {PageKind::small4k, PageKind::large2m, PageKind::huge1g}) {
    if (a.occupancy(k) != b.occupancy(k)) {
      os << " occupancy(" << static_cast<int>(k) << ")=" << a.occupancy(k)
         << " vs " << b.occupancy(k);
      same = false;
    }
  }
  return same;
}

bool diff_cache(const cache::Cache& a, const oracle::RefCache& b,
                std::ostream& os) {
  if (a.occupancy() == b.occupancy()) return true;
  os << " occupancy=" << a.occupancy() << " vs " << b.occupancy();
  return false;
}

/// Cycles derived from `c` under `cm` against the reference's charged ones.
bool diff_cycles(const sim::ThreadCounters& c, const sim::CostModel& cm,
                 const oracle::RefThreadSim& ref, std::ostream& os) {
  const cycles_t exec = c.exec_cycles(cm);
  const cycles_t stall = c.stall_cycles(cm, ref.contended_mem_stall());
  bool same = true;
  if (exec != ref.exec_cycles()) {
    os << " exec_cycles=" << exec << " vs " << ref.exec_cycles();
    same = false;
  }
  if (stall != ref.stall_cycles()) {
    os << " stall_cycles=" << stall << " vs " << ref.stall_cycles();
    same = false;
  }
  return same;
}

/// Full three-way comparison; returns a description of every divergence.
::testing::AssertionResult trio_converged(Trio& t, const sim::CostModel& cm) {
  std::ostringstream os;
  bool same = true;

  os << "[fast vs ref counters]";
  same &= oracle::diff_counters(t.fast.counters(), t.ref.counters(), os);
  os << " [slow vs ref counters]";
  same &= oracle::diff_counters(t.slow.counters(), t.ref.counters(), os);

  for (auto [sim_ptr, label] :
       {std::pair<sim::ThreadSim*, const char*>{&t.fast, "fast"},
        std::pair<sim::ThreadSim*, const char*>{&t.slow, "slow"}}) {
    os << " [" << label << " derived vs ref cycles]";
    same &= diff_cycles(sim_ptr->counters(), cm, t.ref, os);
    os << " [" << label << " vs ref l1 dtlb]";
    same &= diff_tlb(sim_ptr->tlbs().l1d(), t.ref.tlbs().l1d(), os);
    os << " [" << label << " vs ref itlb]";
    same &= diff_tlb(sim_ptr->tlbs().itlb(), t.ref.tlbs().itlb(), os);
    if (sim_ptr->tlbs().has_l2d()) {
      os << " [" << label << " vs ref l2 dtlb]";
      same &= diff_tlb(sim_ptr->tlbs().l2d(), t.ref.tlbs().l2d(), os);
    }
    os << " [" << label << " vs ref l1d]";
    same &= diff_cache(sim_ptr->l1d(), t.ref.l1d(), os);
    os << " [" << label << " vs ref l2]";
    same &= diff_cache(sim_ptr->l2(), t.ref.l2(), os);
  }

  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << os.str();
}

/// One access (or compute charge) of a generated multi-event shape: a
/// burst, a chain or a periodic block. The address advances by
/// `period_inc` each period.
struct Slot {
  vaddr_t addr = 0;
  std::int64_t period_inc = 0;
  std::uint64_t n = 1;       ///< element count (1 = single touch)
  std::int64_t stride = 8;   ///< byte advance per element within a run
  cycles_t cycles = 0;       ///< compute slots only
  bool is_compute = false;
  PageKind page = PageKind::small4k;
  Access access = Access::load;
};

/// Drives `periods` repetitions of `slots` through the public entry points,
/// exactly as a live kernel or a trace replay would.
template <typename Sim>
void drive_slots(Sim& sim, const std::vector<Slot>& slots,
                 std::uint64_t periods) {
  for (std::uint64_t p = 0; p < periods; ++p) {
    for (const Slot& s : slots) {
      if (s.is_compute) {
        sim.add_compute(s.cycles);
        continue;
      }
      const auto a = static_cast<vaddr_t>(
          static_cast<std::int64_t>(s.addr) +
          s.period_inc * static_cast<std::int64_t>(p));
      if (s.n == 1) {
        sim.touch(a, s.page, s.access);
      } else if (s.stride == 8) {
        sim.touch_run(a, s.n, s.page, s.access);
      } else {
        sim.touch_strided(a, s.n, s.stride, s.page, s.access);
      }
    }
  }
}

void drive_slots(Trio& t, const std::vector<Slot>& slots,
                 std::uint64_t periods) {
  drive_slots(t.fast, slots, periods);
  drive_slots(t.slow, slots, periods);
  drive_slots(t.ref, slots, periods);
}

/// Shared memory image for one platform's streams: a promotable small-page
/// region (2 MB-aligned chunks, mapped first so chunk bases stay aligned),
/// a plain small-page region, a huge-page region, and a far huge-page
/// region above 8 GiB. The other regions lie in the first three 1 GiB
/// pages, whose PUD entries share one 64-byte line, so every huge1g walk
/// would read the same two PTE lines; a walk of the far region reads
/// another PUD line. Virtual addresses are never reused, so a mapped and
/// unmapped 6 GiB spacer puts the far region there.
struct Layout {
  static constexpr std::size_t kPromoChunks = 4;

  mem::PhysMem pm{GiB(6) + MiB(128)};
  mem::AddressSpace space{pm};
  mem::Region promo, small, large, far;
  bool promoted[kPromoChunks] = {false, false, false, false};

  Layout() {
    promo = space.map_region(kPromoChunks * MiB(2), PageKind::small4k,
                             "promo");
    small = space.map_region(KiB(256), PageKind::small4k, "small");
    large = space.map_region(MiB(8), PageKind::large2m, "large");
    space.unmap_region(
        space.map_region(GiB(6), PageKind::large2m, "spacer").base);
    far = space.map_region(MiB(4), PageKind::large2m, "far");
  }
};

/// Two sharing variants of `spec`, sliced the way Machine slices them:
/// solo, and a fully loaded core (SMT co-residents on the TLBs/L1, chip
/// co-residents on a shared L2), each with the instruction-stream model on
/// and `policy` (native when null) installed.
std::vector<Trio> make_variants(const sim::ProcessorSpec& spec,
                                const sim::CostModel& cm,
                                const mem::AddressSpace& space,
                                const paging::PolicySpec* policy,
                                std::uint64_t seed0) {
  std::vector<Trio> trios;
  std::vector<unsigned> active = {1, 4};
  for (unsigned v = 0; v < 2; ++v) {
    const unsigned core_sharers = v == 0 ? 1 : 2;
    const unsigned l2_sharers =
        v == 0 ? 1 : (spec.l2_shared_per_chip ? 4 : 2);
    trios.push_back(make_trio(spec, cm, space, core_sharers, l2_sharers,
                              seed0 + 0x9e37 * (v + 1)));
    Trio& t = trios.back();
    t.slow.set_fast_path(false);
    const count_t jump_period = v == 0 ? 53 : 97;
    // Unmapped code base is fine: the instruction stream only probes the
    // ITLB, it never walks the page table.
    constexpr vaddr_t kCodeBase = 0x40'0000;
    constexpr std::size_t kCodeSize = KiB(160);
    for (sim::ThreadSim* s : {&t.fast, &t.slow}) {
      s->attach_code(kCodeBase, kCodeSize, PageKind::small4k, jump_period,
                     0.15);
      if (policy != nullptr) s->set_paging(*policy);
      if (spec.pwc.present()) s->set_pwc(spec.pwc);
    }
    t.ref.attach_code(kCodeBase, kCodeSize, PageKind::small4k, jump_period,
                      0.15);
    t.ref.set_active_threads(active[v]);
    if (policy != nullptr) t.ref.set_paging(*policy);
    if (spec.pwc.present()) t.ref.set_pwc(spec.pwc);
  }
  return trios;
}

void run_platform(const sim::ProcessorSpec& spec,
                  const paging::PolicySpec* policy = nullptr,
                  int streams_override = 0) {
  // No cost is zero (the default charges L1 hits nothing), so every term
  // of the derivation shows in the cycles compared.
  const sim::CostModel cm = oracle::prime_costs();
  const std::uint64_t seed0 = base_seed();
  const int streams = streams_override > 0 ? streams_override : stream_count();
  Layout lay;
  std::vector<Trio> trios = make_variants(spec, cm, lay.space, policy, seed0);

  std::ostringstream corpus;
  for (int stream = 0; stream < streams; ++stream) {
    const std::uint64_t seed =
        seed0 ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(stream + 1));
    corpus << spec.name << ' ' << stream << " 0x" << std::hex << seed
           << std::dec << '\n';
    Rng gen(seed);

    // Picks a target window: a promo chunk (kind follows its promotion
    // state), the plain 4 KB region, or the 2 MB region.
    struct Window {
      vaddr_t base;
      std::size_t limit;
      PageKind kind;
    };
    auto pick_window = [&]() -> Window {
      const std::uint64_t which = gen.next_below(3);
      if (which == 0) {
        const auto chunk =
            static_cast<std::size_t>(gen.next_below(Layout::kPromoChunks));
        return {lay.promo.base + static_cast<vaddr_t>(chunk) * MiB(2), MiB(2),
                lay.promoted[chunk] ? PageKind::large2m : PageKind::small4k};
      }
      if (which == 1) return {lay.small.base, KiB(256), PageKind::small4k};
      return {lay.large.base, MiB(8), PageKind::large2m};
    };

    // An 8-byte-aligned address of [base, base + limit) whose line falls in
    // the L1D set of line address `target`. Sets are counted in the solo
    // variant's L1D; the sliced one has half as many (both powers of two),
    // so lines that share a set there share one here too.
    auto aim_at_set = [&](vaddr_t base, std::size_t limit,
                          std::uint64_t target) -> vaddr_t {
      const std::uint64_t sets = spec.l1d.sets();
      const std::uint64_t span = sets * 64;
      const std::uint64_t first_line =
          ((target >> 6) % sets + sets - (base >> 6) % sets) % sets;
      const vaddr_t first = base + first_line * 64;
      const std::uint64_t choices = (base + limit - first + span - 1) / span;
      return first + gen.next_below(choices) * span + 8 * gen.next_below(8);
    };

    const unsigned n_ops = 2 + static_cast<unsigned>(gen.next_below(10));
    for (unsigned op = 0; op < n_ops; ++op) {
      const auto [base, limit, kind] = pick_window();
      const Access access =
          gen.next_below(3) == 0 ? Access::store : Access::load;

      const std::uint64_t roll = gen.next_below(100);
      if (roll < 10) {
        // Single touch.
        const vaddr_t addr = base + 8 * gen.next_below(limit / 8);
        for (int w = 0; w < 2; ++w) {
          Trio& t = trios[static_cast<std::size_t>(w)];
          t.fast.touch(addr, kind, access);
          t.slow.touch(addr, kind, access);
          t.ref.touch(addr, kind, access);
        }
      } else if (roll < 16) {
        // PTE-set conflicts: one address touched again and again, between
        // data lines aimed at the L1D sets of its walk's PTE lines and of
        // its own line. Each of those lines keeps dropping out of its set's
        // newest slot, and LRU order decides which line the next conflict
        // evicts, so a walk credited without every line being its set's
        // newest skips a restamp that a later eviction depends on.
        // The address and the aimed lines are drawn from the far region a
        // quarter of the time each, so some walks in the block read PTE
        // lines that others do not, and those lines can be evicted.
        const Window far{lay.far.base, lay.far.length, PageKind::large2m};
        const Window aw =
            gen.next_below(4) == 0 ? far : Window{base, limit, kind};
        const vaddr_t addr = aw.base + 8 * gen.next_below(aw.limit / 8 - 8);
        mem::WalkResult walk = lay.space.translate(addr);
        if (policy != nullptr) {
          const paging::PagingModel model(*policy);
          walk = model.walk(lay.space, addr, aw.kind,
                            model.translate(addr, aw.kind).kind);
        }
        std::vector<paddr_t> targets(walk.entry_addr,
                                     walk.entry_addr + walk.levels_touched);
        targets.push_back(addr);
        const std::size_t m = 8 + static_cast<std::size_t>(gen.next_below(33));
        std::vector<Slot> slots(m);
        for (Slot& s : slots) {
          s.access = gen.next_below(4) == 0 ? Access::store : Access::load;
          if (gen.next_below(2) == 0) {
            // The address itself: a touch, or a short run whose followers
            // take the bulk credit.
            s.addr = addr;
            s.page = aw.kind;
            s.n = gen.next_below(3) == 0 ? 2 + gen.next_below(7) : 1;
            continue;
          }
          const Window w = gen.next_below(4) == 0 ? far : pick_window();
          s.addr = aim_at_set(w.base, w.limit,
                              targets[gen.next_below(targets.size())]);
          s.page = w.kind;
        }
        for (Trio& t : trios) drive_slots(t, slots, 1 + gen.next_below(3));
      } else if (roll < 23) {
        // Random-access burst — the GUPS stream shape: a block of
        // uncorrelated singleton touches, exactly what stride-RLE
        // degenerates to.
        const std::size_t m = 4 + static_cast<std::size_t>(gen.next_below(37));
        std::vector<Slot> slots(m);
        for (Slot& s : slots) {
          s.addr = base + 8 * gen.next_below(limit / 8);
          s.n = 1;
          s.page = kind;
          s.access = gen.next_below(4) == 0 ? Access::store : Access::load;
        }
        for (Trio& t : trios) drive_slots(t, slots, 1);
      } else if (roll < 30) {
        // Dependent chain — the pointer-chase shape: a hash-walk of
        // singleton loads revisited for several passes (period_inc = 0),
        // with no stride structure to lean on.
        const std::size_t m = 4 + static_cast<std::size_t>(gen.next_below(21));
        const std::uint64_t periods = 1 + gen.next_below(3);
        std::uint64_t idx = gen.next_below(limit / 8);
        std::vector<Slot> slots(m);
        for (Slot& s : slots) {
          s.addr = base + 8 * idx;
          s.n = 1;
          s.page = kind;
          s.access = Access::load;
          idx = (idx * 0x2545F4914F6CDD1DULL + 0x9E3779B97F4A7C15ULL) %
                (limit / 8);
        }
        for (Trio& t : trios) drive_slots(t, slots, periods);
      } else if (roll < 50) {
        // Unit-stride run crossing line/page (and, in the 2 MB region,
        // huge-page) boundaries.
        auto n = static_cast<std::size_t>(1 + gen.next_below(600));
        if (n > limit / 8) n = limit / 8;
        const vaddr_t addr = base + 8 * gen.next_below(limit / 8 - n + 1);
        for (int w = 0; w < 2; ++w) {
          Trio& t = trios[static_cast<std::size_t>(w)];
          t.fast.touch_run(addr, n, kind, access);
          t.slow.touch_run(addr, n, kind, access);
          t.ref.touch_run(addr, n, kind, access);
        }
      } else if (roll < 70) {
        // Strided run: forward, backward, zero, sub-line, multi-line, and
        // page-striding (> 4 KB) strides.
        static constexpr std::int64_t kStrides[] = {
            -4096, -72, -64, -16, -8, 0, 8, 16, 24, 64, 72, 520, 4096, 4104};
        const std::int64_t stride =
            kStrides[gen.next_below(sizeof(kStrides) / sizeof(kStrides[0]))];
        const std::uint64_t mag =
            stride < 0 ? static_cast<std::uint64_t>(-stride)
                       : static_cast<std::uint64_t>(stride);
        auto n = static_cast<std::size_t>(1 + gen.next_below(300));
        if (mag != 0) {
          const std::size_t max_n =
              static_cast<std::size_t>((limit - 8) / mag) + 1;
          if (n > max_n) n = max_n;
        }
        const std::uint64_t span = mag * (n - 1);
        vaddr_t addr;
        if (stride >= 0) {
          addr = base + 8 * gen.next_below((limit - 8 - span) / 8 + 1);
        } else {
          addr = base + span + 8 * gen.next_below((limit - 8 - span) / 8 + 1);
        }
        for (int w = 0; w < 2; ++w) {
          Trio& t = trios[static_cast<std::size_t>(w)];
          t.fast.touch_strided(addr, n, stride, kind, access);
          t.slow.touch_strided(addr, n, stride, kind, access);
          t.ref.touch_strided(addr, n, stride, kind, access);
        }
      } else if (roll < 80) {
        // Periodic multi-slot block — a stencil kernel's per-point
        // neighbour cycle.
        const std::uint64_t periods = 2 + gen.next_below(7);
        const std::size_t nslots =
            1 + static_cast<std::size_t>(gen.next_below(3));
        std::vector<Slot> slots;
        for (std::size_t si = 0; si < nslots; ++si) {
          Slot s;
          if (gen.next_below(5) == 0) {
            s.is_compute = true;
            s.cycles = static_cast<cycles_t>(1 + gen.next_below(60));
            slots.push_back(s);
            continue;
          }
          static constexpr std::int64_t kBlockStrides[] = {-64, 0,  8, 16,
                                                           64,  72, 520};
          static constexpr std::int64_t kIncs[] = {0,   8,    64,
                                                   512, 4096, -512};
          s.stride = kBlockStrides[gen.next_below(7)];
          s.period_inc = kIncs[gen.next_below(6)];
          s.n = 1 + gen.next_below(64);
          s.page = kind;
          s.access = gen.next_below(3) == 0 ? Access::store : Access::load;
          // Clamp the block's whole-life span inside the window, then
          // place the base so every periodic advance stays in bounds.
          const std::int64_t smag = s.stride < 0 ? -s.stride : s.stride;
          const std::int64_t imag =
              s.period_inc < 0 ? -s.period_inc : s.period_inc;
          auto span_of = [&] {
            return smag * static_cast<std::int64_t>(s.n - 1) +
                   imag * static_cast<std::int64_t>(periods - 1);
          };
          while (span_of() > static_cast<std::int64_t>(limit - 8) &&
                 s.n > 1) {
            s.n /= 2;
          }
          const std::int64_t span = span_of();
          if (span > static_cast<std::int64_t>(limit - 8)) continue;
          const std::int64_t lo =
              std::min<std::int64_t>(
                  0, s.stride * static_cast<std::int64_t>(s.n - 1)) +
              std::min<std::int64_t>(
                  0, s.period_inc * static_cast<std::int64_t>(periods - 1));
          const std::uint64_t play =
              (limit - 8 - static_cast<std::uint64_t>(span)) / 8 + 1;
          s.addr = base + static_cast<vaddr_t>(-lo) + 8 * gen.next_below(play);
          slots.push_back(s);
        }
        if (slots.empty()) continue;
        for (Trio& t : trios) drive_slots(t, slots, periods);
      } else if (roll < 84) {
        const auto cycles = static_cast<cycles_t>(gen.next_below(500));
        for (int w = 0; w < 2; ++w) {
          Trio& t = trios[static_cast<std::size_t>(w)];
          t.fast.add_compute(cycles);
          t.slow.add_compute(cycles);
          t.ref.add_compute(cycles);
        }
      } else if (roll < 90) {
        // Interleaved arrays — CG's a[k] * p[col[k]] loop shape: per period
        // one touch of each of two unit-stride arrays and of a gathered
        // third, in lockstep. The three windows are drawn independently, so
        // the arrays' lines sit in different cache sets and mostly on
        // different pages; the fast path credits a line that is the newest
        // of its set while the other arrays' lines are newer elsewhere.
        static constexpr std::int64_t kIncs[] = {8, 8, 24, 520, 4104, -72};
        const std::uint64_t periods = 8 + gen.next_below(120);
        std::vector<Slot> slots(3);
        for (std::size_t si = 0; si < slots.size(); ++si) {
          Slot& s = slots[si];
          const Window w = si == 0 ? Window{base, limit, kind} : pick_window();
          s.page = w.kind;
          s.period_inc = si < 2 ? 8 : kIncs[gen.next_below(6)];
          std::int64_t span =
              std::abs(s.period_inc) * static_cast<std::int64_t>(periods - 1);
          if (span > static_cast<std::int64_t>(w.limit - 8)) {
            s.period_inc = 8;
            span = 8 * static_cast<std::int64_t>(periods - 1);
          }
          const std::int64_t lo = std::min<std::int64_t>(
              0, s.period_inc * static_cast<std::int64_t>(periods - 1));
          const std::uint64_t play =
              (w.limit - 8 - static_cast<std::uint64_t>(span)) / 8 + 1;
          s.addr =
              w.base + static_cast<vaddr_t>(-lo) + 8 * gen.next_below(play);
          s.access = si == 2 && gen.next_below(4) == 0 ? Access::store
                                                       : Access::load;
        }
        for (Trio& t : trios) drive_slots(t, slots, periods);
      } else if (roll < 94) {
        // SMT context switch on pre-ASID hardware: all translations drop.
        // The same address is touched just before and just after, so a
        // translation that survives the flush anywhere (an MRU filter
        // included) shows as a missing walk.
        const vaddr_t addr = base + 8 * gen.next_below(limit / 8);
        for (int w = 0; w < 2; ++w) {
          Trio& t = trios[static_cast<std::size_t>(w)];
          t.fast.touch(addr, kind, access);
          t.slow.touch(addr, kind, access);
          t.ref.touch(addr, kind, access);
          t.fast.tlbs().flush_all();
          t.slow.tlbs().flush_all();
          t.ref.flush_tlbs();
          t.fast.touch(addr, kind, access);
          t.slow.touch(addr, kind, access);
          t.ref.touch(addr, kind, access);
        }
      } else {
        // Promotion event: one 4 KB chunk becomes a huge page, followed by
        // the TLB shootdown the promotion mechanism performs.
        std::size_t chunk = Layout::kPromoChunks;
        for (std::size_t ci = 0; ci < Layout::kPromoChunks; ++ci) {
          if (!lay.promoted[ci]) {
            chunk = ci;
            break;
          }
        }
        if (chunk == Layout::kPromoChunks) continue;  // all promoted already
        const vaddr_t chunk_base =
            lay.promo.base + static_cast<vaddr_t>(chunk) * MiB(2);
        if (lay.space.promote(chunk_base)) {
          lay.promoted[chunk] = true;
          ASSERT_EQ(lay.space.kind_at(chunk_base), PageKind::large2m);
          for (int w = 0; w < 2; ++w) {
            Trio& t = trios[static_cast<std::size_t>(w)];
            t.fast.tlbs().flush_all();
            t.slow.tlbs().flush_all();
            t.ref.flush_tlbs();
          }
        }
      }
    }

    for (unsigned v = 0; v < 2; ++v) {
      ASSERT_TRUE(trio_converged(trios[v], cm))
          << "platform=" << spec.name
          << " policy=" << (policy != nullptr ? policy->name() : "native")
          << " variant=" << v
          << " stream=" << stream << " stream_seed=0x" << std::hex << seed
          << " base_seed=0x" << seed0 << std::dec
          << " (rerun with LPOMP_DIFF_SEED=0x" << std::hex << seed0
          << std::dec << ")";
    }
  }

  if (const char* path = std::getenv("LPOMP_SEED_CORPUS")) {
    std::ofstream out(path, std::ios::app);
    out << corpus.str();
  }
}

TEST(SimDifferential, OpteronFastPathMatchesReference) {
  run_platform(sim::ProcessorSpec::opteron270());
}

TEST(SimDifferential, XeonFastPathMatchesReference) {
  run_platform(sim::ProcessorSpec::xeon_ht());
}

// Paging-policy differential: the same randomized streams with a
// non-identity translation overlay, on the PWC-bearing modern spec — so one
// pass covers effective-kind rebanking, truncated and extended walks, and
// the page-walk cache. huge1g also runs on the Opteron, whose DTLBs hold no
// 1 GiB entries: every access walks, the corner where a stale fast path
// once credited impossible hits, and where the bulk walk credit applies.
int policy_stream_count() {
  if (const char* env = std::getenv("LPOMP_POLICY_STREAMS")) {
    return std::atoi(env);
  }
  return 2000;
}

TEST(SimDifferential, PagingPoliciesMatchReference) {
  const int streams = policy_stream_count();
  for (paging::Policy p :
       {paging::Policy::base4k, paging::Policy::hugetlb2m,
        paging::Policy::huge1g, paging::Policy::thp}) {
    paging::PolicySpec spec;
    spec.policy = p;
    run_platform(sim::ProcessorSpec::modern(), &spec, streams);
  }
}

TEST(SimDifferential, Huge1gZeroCapacityBankMatchesReference) {
  paging::PolicySpec spec;
  spec.policy = paging::Policy::huge1g;
  run_platform(sim::ProcessorSpec::opteron270(), &spec, policy_stream_count());
}

// The bulk walk credit's two other boundaries under huge1g: the Xeon, whose
// single DTLB level holds no 1 GiB entries (walk-only, one level), and the
// Opteron with a page-walk cache added, where every access still walks but
// the PWC probe changes state, so no walk may be credited in bulk.
TEST(SimDifferential, Huge1gWalkCreditBoundariesMatchReference) {
  paging::PolicySpec spec;
  spec.policy = paging::Policy::huge1g;
  run_platform(sim::ProcessorSpec::xeon_ht(), &spec, policy_stream_count());
  sim::ProcessorSpec opteron_pwc = sim::ProcessorSpec::opteron270();
  opteron_pwc.pwc = sim::ProcessorSpec::modern().pwc;
  run_platform(opteron_pwc, &spec, policy_stream_count());
}

// A TLB hit found by the L1 DTLB bank's hint is credited inline, and the
// credit must stamp the entry as the per-event probe does: the stamp is
// what keeps the entry from being the bank's LRU victim later. On the
// Opteron's 32-entry bank, each page touched 512 B in: page 0, page 1
// (neither its line nor the PTE lines its walk reads share page 0's L1D
// set, so page 0's line stays its set's newest), page 0 again (the inline
// hint hit), pages 2-32 (the last evicts the LRU entry: page 1, since page
// 0 was stamped), then page 0, which hits. A credit that skipped the stamp
// would evict page 0 instead and miss on it once more.
TEST(SimDifferential, InlineHintHitStampsItsEntry) {
  const sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
  const sim::CostModel cm = oracle::prime_costs();
  Layout lay;
  Trio t = make_trio(spec, cm, lay.space, 1, 1, base_seed());
  t.slow.set_fast_path(false);
  const auto page = [&](unsigned p) {
    return lay.small.base + p * KiB(4) + 512;
  };
  std::vector<vaddr_t> addrs = {page(0), page(1), page(0)};
  for (unsigned p = 2; p <= 32; ++p) addrs.push_back(page(p));
  addrs.push_back(page(0));
  for (const vaddr_t a : addrs) {
    t.fast.touch(a, PageKind::small4k, Access::load);
    t.slow.touch(a, PageKind::small4k, Access::load);
    t.ref.touch(a, PageKind::small4k, Access::load);
  }
  EXPECT_EQ(t.ref.counters().dtlb_l1_misses, 33u);
  EXPECT_TRUE(trio_converged(t, cm));
}

// Randomized revisits of more distinct 4 KB pages than the solo L1 DTLB
// holds: half the touches return to one of the last few pages, which the
// bank's hint then finds while another page is its newest, and the rest
// spread over all the pages, so the bank keeps evicting and an entry's
// stamp decides which page goes. Each page keeps one line, so a revisited
// line is often still the newest of its L1D set and the hint hit is
// credited inline.
void run_revisits(const sim::ProcessorSpec& spec, int streams) {
  const sim::CostModel cm = oracle::prime_costs();
  const std::uint64_t seed0 = base_seed() ^ 0x4E715;
  Layout lay;
  std::vector<Trio> trios = make_variants(spec, cm, lay.space, nullptr, seed0);
  const std::uint64_t entries = spec.l1_dtlb.small4k.entries;
  const std::uint64_t region_pages = lay.promo.length / KiB(4);
  for (int stream = 0; stream < streams; ++stream) {
    const std::uint64_t seed =
        seed0 ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(stream + 1));
    Rng gen(seed);
    const std::uint64_t pages = entries + 1 + gen.next_below(entries);
    const vaddr_t first =
        lay.promo.base + gen.next_below(region_pages - pages + 1) * KiB(4);
    std::vector<vaddr_t> addr(pages);
    for (std::uint64_t p = 0; p < pages; ++p) {
      addr[p] = first + p * KiB(4) + 8 * gen.next_below(KiB(4) / 8);
    }
    std::vector<std::uint64_t> recent(1 + gen.next_below(4), 0);
    const std::uint64_t touches = 200 + gen.next_below(800);
    for (std::uint64_t i = 0; i < touches; ++i) {
      const std::uint64_t p = gen.next_below(2) == 0
                                  ? recent[gen.next_below(recent.size())]
                                  : gen.next_below(pages);
      recent[i % recent.size()] = p;
      const Access access =
          gen.next_below(4) == 0 ? Access::store : Access::load;
      for (Trio& t : trios) {
        t.fast.touch(addr[p], PageKind::small4k, access);
        t.slow.touch(addr[p], PageKind::small4k, access);
        t.ref.touch(addr[p], PageKind::small4k, access);
      }
    }
    for (unsigned v = 0; v < 2; ++v) {
      ASSERT_TRUE(trio_converged(trios[v], cm))
          << "platform=" << spec.name << " variant=" << v
          << " stream=" << stream << " stream_seed=0x" << std::hex << seed
          << std::dec;
    }
  }
}

TEST(SimDifferential, RevisitsBeyondL1DtlbCapacityMatchReference) {
  run_revisits(sim::ProcessorSpec::opteron270(), 300);
  run_revisits(sim::ProcessorSpec::xeon_ht(), 100);
}

// --- replay fast path ---------------------------------------------------------
//
// Property: for a randomized recorded stream, a ReplayDriver replay on the
// batched fast path equals the same replay on the per-event path
// counter-for-counter. The replays vary every replay knob (platform, seed,
// code page kind), so the recorded streams are checked under both TLB
// geometries and both ITLB layouts.

constexpr int kDefaultReplayStreams = 25;

int replay_stream_count() {
  if (const char* env = std::getenv("LPOMP_REPLAY_STREAMS")) {
    return std::atoi(env);
  }
  return kDefaultReplayStreams;
}

::testing::AssertionResult outcomes_identical(const trace::ReplayOutcome& a,
                                              const trace::ReplayOutcome& b) {
  std::ostringstream os;
  bool same = true;
  if (a.simulated_seconds != b.simulated_seconds) {
    os << " simulated_seconds=" << a.simulated_seconds << " vs "
       << b.simulated_seconds;
    same = false;
  }
  if (a.verified != b.verified || a.checksum != b.checksum) {
    os << " verified/checksum differ";
    same = false;
  }
  const auto& ea = a.profile.events();
  const auto& eb = b.profile.events();
  if (ea.size() != eb.size()) {
    os << " event count " << ea.size() << " vs " << eb.size();
    same = false;
  } else {
    for (std::size_t i = 0; i < ea.size(); ++i) {
      if (ea[i].name != eb[i].name || ea[i].count != eb[i].count ||
          ea[i].per_second != eb[i].per_second) {
        os << " " << ea[i].name << "=" << ea[i].count << "@" << ea[i].per_second
           << " vs " << eb[i].name << "=" << eb[i].count << "@"
           << eb[i].per_second;
        same = false;
      }
    }
  }
  if (same) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << os.str();
}

/// Builds a synthetic two-thread trace whose addresses live inside the
/// shared pool the replay substrate rebuilds for (CG, S, `kind`), issued
/// through a TraceRecorder's sink calls as a live run would. The event mix
/// covers every replay entry point: single touches, unit-stride runs,
/// strided runs (forward/backward/page-striding), compute charges, and
/// periodic motifs whose repeated sweeps the fast path credits in bulk.
trace::Trace make_replay_trace(std::uint64_t seed, PageKind kind,
                             vaddr_t pool_base, std::size_t window) {
  constexpr unsigned kThreads = 2;
  Rng gen(seed);
  trace::TraceRecorder rec(kThreads);

  auto emit_ops = [&](unsigned tid) {
    const unsigned n_ops = 1 + static_cast<unsigned>(gen.next_below(8));
    for (unsigned op = 0; op < n_ops; ++op) {
      const Access access =
          gen.next_below(3) == 0 ? Access::store : Access::load;
      const std::uint64_t roll = gen.next_below(100);
      if (roll < 30) {
        rec.on_touch(tid, pool_base + 8 * gen.next_below(window / 8), kind,
                     access);
      } else if (roll < 50) {
        auto n = static_cast<std::uint64_t>(1 + gen.next_below(400));
        if (n > window / 8) n = window / 8;
        const vaddr_t addr = pool_base + 8 * gen.next_below(window / 8 - n + 1);
        rec.on_touch_run(tid, addr, n, kind, access);
      } else if (roll < 70) {
        static constexpr std::int64_t kStrides[] = {-4096, -72, -64, -8, 0,
                                                    8,     16,  64,  72, 520,
                                                    4096};
        const std::int64_t stride =
            kStrides[gen.next_below(sizeof(kStrides) / sizeof(kStrides[0]))];
        const std::uint64_t mag =
            stride < 0 ? static_cast<std::uint64_t>(-stride)
                       : static_cast<std::uint64_t>(stride);
        auto n = static_cast<std::uint64_t>(2 + gen.next_below(100));
        if (mag != 0) {
          const std::uint64_t max_n = (window - 8) / mag + 1;
          if (n > max_n) n = max_n;
        }
        const std::uint64_t span = mag * (n - 1);
        const vaddr_t slack = 8 * gen.next_below((window - 8 - span) / 8 + 1);
        const vaddr_t addr =
            stride >= 0 ? pool_base + slack : pool_base + span + slack;
        rec.on_touch_strided(tid, addr, n, stride, kind, access);
      } else if (roll < 78) {
        rec.on_compute(tid, static_cast<cycles_t>(gen.next_below(500)));
      } else if (roll < 88) {
        // Hot motif: the identical small sweep issued back-to-back. Its
        // span is L1/DTLB-resident after the first pass, so the mix
        // exercises repeated sweeps the fast path can credit in bulk.
        const unsigned reps = 3 + static_cast<unsigned>(gen.next_below(4));
        const vaddr_t hot = pool_base + 8 * gen.next_below((window / 2) / 8);
        const auto hn =
            static_cast<std::uint64_t>(32 + gen.next_below(64));
        for (unsigned r = 0; r < reps; ++r) {
          rec.on_touch_run(tid, hot, hn, kind, access);
        }
      } else {
        // Periodic motif: constant per-iteration deltas over many
        // iterations, a stencil kernel's per-point neighbour cycle.
        const unsigned reps = 4 + static_cast<unsigned>(gen.next_below(45));
        const vaddr_t a0 = pool_base + 8 * gen.next_below((window / 4) / 8);
        const vaddr_t a1 = pool_base + window / 2;
        const auto cycles = static_cast<cycles_t>(1 + gen.next_below(40));
        for (unsigned r = 0; r < reps; ++r) {
          rec.on_touch(tid, a0 + static_cast<vaddr_t>(r) * 64, kind, access);
          rec.on_touch_run(tid, a1 + static_cast<vaddr_t>(r) * 512, 8, kind,
                           access);
          rec.on_compute(tid, cycles);
        }
      }
    }
  };

  // Live boundary shape: serial prelude (master only), 1–3 parallel
  // regions (all threads), serial tail, end_run.
  const unsigned phases = 1 + static_cast<unsigned>(gen.next_below(3));
  for (unsigned p = 0; p < phases; ++p) {
    if (gen.next_below(2) == 0) emit_ops(0);
    rec.on_boundary(sim::BoundaryKind::begin_parallel);
    for (unsigned tid = 0; tid < kThreads; ++tid) emit_ops(tid);
    rec.on_boundary(sim::BoundaryKind::end_parallel);
  }
  emit_ops(0);
  rec.on_boundary(sim::BoundaryKind::end_run);

  trace::TraceMeta meta;
  meta.kernel = "CG";
  meta.klass = "S";
  meta.threads = kThreads;
  meta.page_kind = kind;
  meta.platform = "synthetic";
  meta.seed = seed;
  meta.verified = true;
  meta.checksum = static_cast<double>(seed >> 8);
  return rec.finish(std::move(meta));
}

/// Restores the process-wide fast-path default on scope exit, so a failed
/// assertion cannot leave later tests on the per-event path.
class PerEventDefault {
 public:
  PerEventDefault() { sim::ThreadSim::set_default_fast_path(false); }
  ~PerEventDefault() { sim::ThreadSim::set_default_fast_path(true); }
  PerEventDefault(const PerEventDefault&) = delete;
  PerEventDefault& operator=(const PerEventDefault&) = delete;
};

TEST(SimDifferential, BatchedReplayMatchesPerEventReplay) {
  const std::uint64_t seed0 = base_seed();
  const int streams = replay_stream_count();

  // Pool base per page kind: the substrate maps the shared pool first, so
  // it lands at its arena's base.
  const vaddr_t base_of[2] = {
      mem::AddressSpace::arena_base(PageKind::small4k),
      mem::AddressSpace::arena_base(PageKind::large2m)};
  const std::size_t window =
      std::min(npb::pool_bytes_for(*npb::kernel_from_name("CG"),
                                   *npb::klass_from_name("S")),
               MiB(2));
  ASSERT_GE(window, KiB(128));

  // Four replay configs spanning both platforms, distinct seeds, both code
  // page kinds — every replay knob varies across the set.
  std::vector<trace::ReplayConfig> cfgs(4);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].spec = i % 2 == 0 ? sim::ProcessorSpec::opteron270()
                              : sim::ProcessorSpec::xeon_ht();
    cfgs[i].seed = seed0 + 0x9e37 * (i % 3);
    cfgs[i].code_page_kind = i < 2 ? PageKind::small4k : PageKind::large2m;
  }

  std::ostringstream corpus;
  for (int stream = 0; stream < streams; ++stream) {
    const std::uint64_t seed =
        seed0 ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(stream + 1));
    corpus << "replay " << stream << " 0x" << std::hex << seed << std::dec
           << '\n';
    const PageKind kind =
        stream % 2 == 0 ? PageKind::small4k : PageKind::large2m;
    const trace::Trace tr =
        make_replay_trace(seed, kind, base_of[stream % 2], window);

    for (const trace::ReplayConfig& cfg : cfgs) {
      const trace::ReplayOutcome fast = trace::ReplayDriver(cfg).run(tr);
      trace::ReplayOutcome slow;
      {
        const PerEventDefault per_event;
        slow = trace::ReplayDriver(cfg).run(tr);
      }
      ASSERT_TRUE(outcomes_identical(fast, slow))
          << "spec=" << cfg.spec.name << " code_pages="
          << page_kind_name(cfg.code_page_kind) << " stream=" << stream
          << " page_kind=" << page_kind_name(kind) << " stream_seed=0x"
          << std::hex << seed << " base_seed=0x" << seed0 << std::dec
          << " (rerun with LPOMP_DIFF_SEED=0x" << std::hex << seed0
          << std::dec << ")";
    }
  }

  if (const char* path = std::getenv("LPOMP_SEED_CORPUS")) {
    std::ofstream out(path, std::ios::app);
    out << corpus.str();
  }
}

// The reference configuration switch itself: a ThreadSim constructed while
// the process-wide default is off must take the per-event path (observable
// only through wall-clock, so just pin the flag wiring here).
TEST(SimDifferential, DefaultFastPathToggle) {
  ASSERT_TRUE(sim::ThreadSim::default_fast_path());
  sim::ThreadSim::set_default_fast_path(false);
  {
    mem::PhysMem pm{MiB(16)};
    mem::AddressSpace space{pm};
    const sim::ProcessorSpec spec = sim::ProcessorSpec::opteron270();
    sim::ThreadSim s(space, spec.itlb, spec.l1_dtlb, spec.l2_dtlb, spec.l1d,
                     spec.l2, 1);
    EXPECT_FALSE(s.fast_path());
    s.set_fast_path(true);
    EXPECT_TRUE(s.fast_path());
  }
  sim::ThreadSim::set_default_fast_path(true);
}

}  // namespace
}  // namespace lpomp

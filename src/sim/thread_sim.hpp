// Per-simulated-thread accounting engine: every instrumented data access of
// an application thread flows through here, probing that thread's view of
// the TLB and cache hierarchy and counting the events it causes. The engine
// knows no cycle costs: sim::Machine turns the counts into execution and
// stall cycles (ThreadCounters::exec_cycles/stall_cycles, sim/counters.hpp).
//
// Sharing model: hardware structures that several simulated threads share
// (the DTLB/L1 under SMT, the Xeon's chip-wide L2) are represented as
// private slices with capacity divided by the number of sharers. This
// first-order model of destructive interference keeps each thread's
// accounting independent of host scheduling, so every figure regenerates
// deterministically.
//
// Events enter only through touch, touch_run, touch_strided and add_compute.
// A live kernel and a trace replay make the same calls, and an attached
// TraceSink observes each call once, in the framing it was made with.
//
// Fast path (DESIGN.md §7): one rule, credit(), decides for every entry
// point whether accesses are credited in closed form. touch asks it for one
// access; touch_run/touch_strided ask it, from each position, for all the
// accesses left on that cache line. It credits them when the per-event
// outcome is *provably* one that changes no state but a stamp the credit
// makes itself, with no instruction jump coming due. There are two such
// outcomes: a TLB hit (the line is the newest of its L1 cache set and the
// translation is found by its L1 DTLB bank's filter or verified hint, which
// stamps it), and a walk that changes nothing (no data TLB level holds the
// effective kind, there is no page-walk cache, the walk is the remembered
// one and the data line and every PTE line are the newest of their L1
// sets). When the rule declines, touch_impl runs one access; it is the
// per-event reference semantics and nothing else. The credits are
// constructed to be bit-identical to issuing the events one at a time —
// every ProfileReport counter is a paper-facing result, so the fast path is
// only legal because tests/oracle's differential harness proves
// counter-for-counter equality against a naive single-step reference
// simulator. set_fast_path(false) makes the rule decline every access, so
// every entry point runs touch_impl per event (the reference configuration
// used for golden generation and the oracle).
//
// Walk memo (DESIGN.md §11): the thread keeps its last policy-adjusted
// walk, keyed by effective vpn, effective kind, layout kind and the page
// table's generation. Every address of one key walks the same entries, so
// only the first walk of a key runs PagingModel::walk and its unmapped and
// layout-mismatch checks; every change to the table starts a new
// generation.
#pragma once

#include "cache/cache.hpp"
#include "mem/address_space.hpp"
#include "paging/policy.hpp"
#include "sim/counters.hpp"
#include "sim/trace_sink.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"
#include "tlb/tlb_hierarchy.hpp"

namespace lpomp::sim {

class ThreadSim {
 public:
  /// `space` must outlive the ThreadSim; page-walk events are derived from
  /// real walks of its page table. TLB/cache configs are the (possibly
  /// sharing-sliced) structures this thread sees.
  ThreadSim(const mem::AddressSpace& space, tlb::Tlb::Config itlb,
            tlb::Tlb::Config l1_dtlb, std::optional<tlb::Tlb::Config> l2_dtlb,
            cache::CacheGeometry l1d, cache::CacheGeometry l2,
            std::uint64_t seed);

  ThreadSim(ThreadSim&&) = default;

  /// Account one data access to simulated address `addr`, living in a region
  /// backed by pages of `kind`.
  void touch(vaddr_t addr, PageKind kind, Access access) {
    if (sink_ != nullptr) sink_->on_touch(trace_tid_, addr, kind, access);
    const paging::Translation tr = paging_.translate(addr, kind);
    if (!credit(addr, kind, tr, 1, access)) touch_impl(addr, kind, access, tr);
  }

  /// Account `n` sequential 8-byte element accesses starting at `addr`
  /// (fast path for unit-stride loops; semantically identical to n touches).
  void touch_run(vaddr_t addr, std::size_t n, PageKind kind, Access access);

  /// Account `n` accesses starting at `addr` and advancing `stride_bytes`
  /// (possibly negative or zero) per element — semantically identical to the
  /// loop of n touches. stride_bytes == 8 is canonicalised to touch_run so
  /// the trace framing of unit-stride runs is unique.
  void touch_strided(vaddr_t addr, std::size_t n, std::int64_t stride_bytes,
                     PageKind kind, Access access);

  /// Charge pure compute work (FP arithmetic etc.) that does not touch memory.
  void add_compute(cycles_t cycles) {
    if (sink_ != nullptr) sink_->on_compute(trace_tid_, cycles);
    counters_.compute_cycles += cycles;
  }

  /// Attach (or detach, with nullptr) an access-trace sink. Every subsequent
  /// touch/touch_run/touch_strided/add_compute is reported as thread `tid`
  /// of the sink.
  void set_trace_sink(TraceSink* sink, unsigned tid) {
    sink_ = sink;
    trace_tid_ = tid;
  }

  /// Configure the instruction-stream model: the code region of the binary
  /// and how often the thread's control flow leaves the current hot page
  /// (one far jump every `jump_period` data accesses; `cold_fraction` of the
  /// jumps target a uniformly random page of the binary instead of the hot
  /// working set). See DESIGN.md §6.
  void attach_code(vaddr_t base, std::size_t size, PageKind kind,
                   count_t jump_period, double cold_fraction);

  /// Install a paging-policy overlay (see paging/policy.hpp). The default
  /// native overlay is the identity and reproduces pre-policy behaviour
  /// bit-for-bit. Applies to data translations only; the instruction stream
  /// keeps the code region's layout kind (code placement is an explicit
  /// experiment axis already, and the paper's ITLB story is about code
  /// pages, not policy).
  void set_paging(const paging::PolicySpec& spec) {
    paging_ = paging::PagingModel(spec);
  }
  const paging::PagingModel& paging() const { return paging_; }

  /// Install (or remove) the page-walk cache on this thread's hierarchy.
  void set_pwc(const tlb::PwcConfig& config) { tlbs_.set_pwc(config); }

  /// Enable/disable the batched fast path on this thread. Off = the naive
  /// per-event reference configuration: every entry point degrades to a
  /// touch_impl loop. Counters are identical either way (the invariant the
  /// differential oracle enforces); only wall-clock speed differs.
  void set_fast_path(bool on) { fast_path_ = on; }
  bool fast_path() const { return fast_path_; }

  /// Process-wide default for newly constructed ThreadSims (read once in
  /// the constructor). Lets tests and golden generation put whole Machines —
  /// built deep inside the Runtime/engine stack — into reference mode.
  static void set_default_fast_path(bool on) { default_fast_path_ = on; }
  static bool default_fast_path() { return default_fast_path_; }

  const ThreadCounters& counters() const { return counters_; }

  tlb::TlbHierarchy& tlbs() { return tlbs_; }
  const cache::Cache& l1d() const { return l1d_; }
  const cache::Cache& l2() const { return l2_; }

 private:
  /// The per-event reference semantics of one access, given its effective
  /// translation `tr` (paging_.translate(addr, kind)): every probe, fill,
  /// walk and counter. Reached when credit() declines, which it does for
  /// every access when the fast path is off; the public entry points layer
  /// trace reporting on top.
  void touch_impl(vaddr_t addr, PageKind kind, Access access,
                  paging::Translation tr);

  /// PagingModel::walk of `addr` (layout `kind`) to `tr`, through the walk
  /// memo.
  const mem::WalkResult& policy_walk(vaddr_t addr, PageKind kind,
                                     paging::Translation tr) {
    if (!memo_matches(kind, tr)) {
      memo_.walk = paging_.walk(*space_, addr, kind, tr.kind);
      memo_.vpn = tr.vpn;
      memo_.kind = tr.kind;
      memo_.layout = kind;
      memo_.generation = space_->page_table().generation();
    }
    return memo_.walk;
  }

  bool memo_matches(PageKind kind, paging::Translation tr) const {
    return memo_.vpn == tr.vpn && memo_.kind == tr.kind &&
           memo_.layout == kind &&
           memo_.generation == space_->page_table().generation();
  }

  /// The closed-form credit rule (DESIGN.md §7), the only one: credits `n`
  /// accesses to `addr`'s line, translated to `tr`, and returns true when
  /// the fast path is on, `n` is below the jump countdown (no jump comes
  /// due) and `addr`'s line is the newest of its L1 set, and either
  ///  * tr.vpn is its L1 DTLB bank's filter or verified hint
  ///    (TlbHierarchy::data_hint_hit, which stamps the entry as
  ///    touch_impl's TLB probe would): n L1 TLB hits; or
  ///  * tr.kind is walk-only (no data TLB level holds it, no PWC), the memo
  ///    holds its walk and every PTE line of that walk is the newest of its
  ///    L1 set: n walks that each hit L1 on every line.
  /// Otherwise it returns false and changes nothing; the caller then runs
  /// touch_impl. Proof: touch_impl would hit the set's newest line, whose
  /// restamp keeps every relative order within the set, and the TLB hit's
  /// stamp is the hint probe's, after which the entry is the bank's filter
  /// (the walk probes fill nothing); only the jump countdown changes
  /// besides, and the credit decrements it. No outcome reads the cache's
  /// global MRU filter, the one other difference. Every check reads state
  /// the credited accesses leave as they found it, so crediting n is
  /// crediting one n times.
  bool credit(vaddr_t addr, PageKind kind, paging::Translation tr, count_t n,
              Access access) {
    if (!fast_path_ || (jump_period_ != 0 && n >= until_jump_) ||
        !l1d_.mru_hit(addr)) {
      return false;
    }
    ThreadCounters& c = counters_;
    if (!tlbs_.data_hint_hit(tr.vpn, tr.kind)) {
      if (!tlbs_.walk_only(tr.kind) || !memo_matches(kind, tr)) return false;
      for (unsigned l = 0; l < memo_.walk.levels_touched; ++l) {
        if (!l1d_.mru_hit(memo_.walk.entry_addr[l])) return false;
      }
      c.dtlb_l1_misses += n;
      c.dtlb_walks[static_cast<std::size_t>(tr.kind)] += n;
      c.walk_levels += n * memo_.walk.levels_touched;
      c.long_stalls += n;  // a full TLB miss is a long stall
    }
    c.accesses += n;
    if (access == Access::store) c.stores += n;
    if (jump_period_ != 0) until_jump_ -= n;
    return true;
  }

  /// Shared body of touch_run/touch_strided: `n` accesses at `addr`,
  /// `addr + stride`, ... From each position it credits the accesses left
  /// on that 64-byte line at once, or else runs one touch_impl.
  void run_elems(vaddr_t addr, std::uint64_t n, std::int64_t stride,
                 PageKind kind, Access access);

  void instruction_jump();

  /// Stream-prefetcher probe for an L2 miss on `line_addr` (byte address >>
  /// 6) inside page `page_id`. Returns true when the line continues an
  /// active sequential stream within the same page, i.e. the prefetcher
  /// already has it in flight. Misses (re)allocate a stream slot.
  bool prefetcher_covers(std::uint64_t line_addr, std::uint64_t page_id);

  const mem::AddressSpace* space_;
  paging::PagingModel paging_;  ///< translation overlay; identity by default
  tlb::TlbHierarchy tlbs_;
  cache::Cache l1d_;
  cache::Cache l2_;

  // Instruction-stream model state.
  vaddr_t code_base_ = 0;
  std::size_t code_pages_ = 0;
  PageKind code_kind_ = PageKind::small4k;
  count_t jump_period_ = 0;  // 0 → code model disabled
  count_t until_jump_ = 0;
  double cold_fraction_ = 0.0;
  static constexpr std::size_t kHotCodePages = 12;

  // Stream-prefetcher state: last-seen line per detected stream, tagged
  // with the page it is confined to. Round-robin allocation.
  struct Stream {
    std::uint64_t last_line = 0;
    std::uint64_t page = 0;
    std::uint8_t confidence = 0;  ///< sequential hits seen; covers at >= 2
    bool valid = false;
  };
  static constexpr unsigned kStreams = 16;
  Stream streams_[kStreams];
  unsigned stream_rr_ = 0;

  TraceSink* sink_ = nullptr;
  unsigned trace_tid_ = 0;

  bool fast_path_ = default_fast_path_;
  inline static bool default_fast_path_ = true;

  Rng rng_;
  ThreadCounters counters_;

  /// The last policy-adjusted walk and its key. A walk's levels and entry
  /// addresses are the same for every address of one effective page (the
  /// effective page is never finer than the walk's deepest level), so they
  /// are reused while the key holds; `walk.paddr` is the first address's.
  struct WalkMemo {
    vpn_t vpn = 0;
    PageKind kind = PageKind::small4k;    ///< effective kind
    PageKind layout = PageKind::small4k;  ///< the region's layout kind
    std::uint64_t generation = ~std::uint64_t{0};  ///< none walked yet
    mem::WalkResult walk;
  };
  WalkMemo memo_;
};

}  // namespace lpomp::sim

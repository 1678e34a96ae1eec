#include "sim/thread_sim.hpp"

namespace lpomp::sim {

ThreadSim::ThreadSim(const mem::AddressSpace& space, tlb::Tlb::Config itlb,
                     tlb::Tlb::Config l1_dtlb,
                     std::optional<tlb::Tlb::Config> l2_dtlb,
                     cache::CacheGeometry l1d, cache::CacheGeometry l2,
                     std::uint64_t seed)
    : space_(&space),
      tlbs_(std::move(itlb), std::move(l1_dtlb), std::move(l2_dtlb)),
      l1d_("l1d", l1d),
      l2_("l2", l2),
      rng_(seed) {}

void ThreadSim::touch_impl(vaddr_t addr, PageKind kind, Access access,
                           paging::Translation tr) {
  const bool is_store = access == Access::store;
  if (walk_credit_ok(addr, kind, tr) && fast_path_ &&
      (jump_period_ == 0 || until_jump_ > 1)) {
    credit_walk_run(1, is_store);
    return;
  }

  ThreadCounters& c = counters_;
  ++c.accesses;
  if (is_store) ++c.stores;

  bool long_stall = false;

  // --- address translation --------------------------------------------------
  switch (tlbs_.data_access(tr.vpn, tr.kind)) {
    case tlb::DtlbHit::l1:
      break;
    case tlb::DtlbHit::l2:
      ++c.dtlb_l1_misses;
      ++c.dtlb_l2_hits;
      break;
    case tlb::DtlbHit::walk: {
      ++c.dtlb_l1_misses;
      ++c.dtlb_walks[static_cast<std::size_t>(tr.kind)];
      // The policy-adjusted walk consults the real page table (asserting
      // the address is mapped with the region's layout kind) and yields
      // the effective depth — e.g. exactly 2 levels for a huge1g leaf.
      // The memo keeps it for the rest of the effective page.
      const mem::WalkResult& walk = policy_walk(addr, kind, tr);
      // A page-walk cache lets the walker start below the root: levels at
      // and above the deepest cached interior entry are PWC reads, not
      // memory references. Absent (the 2007 platforms), first stays 0.
      unsigned first = 0;
      tlb::Pwc& pwc = tlbs_.pwc();
      if (pwc.present() && walk.levels_touched > 1) {
        const int d = pwc.deepest_cached(addr, walk.levels_touched - 1);
        if (d >= 0) {
          first = static_cast<unsigned>(d) + 1;
          c.pwc_hits += first;
        }
      }
      c.walk_levels += walk.levels_touched - first;
      // The hardware walker loads each level's entry through the data
      // caches: neighbouring translations share PTE lines (8 entries per
      // 64 B line), so sequential streams walk cheaply while scattered
      // access patterns pay real memory latency for cold table entries.
      for (unsigned l = first; l < walk.levels_touched; ++l) {
        // A line that is its set's newest is a hit that changes no LRU
        // order, so it needs no restamp (cache::LruSets).
        const vaddr_t pte = walk.entry_addr[l];
        if (l1d_.mru_hit(pte) || l1d_.access(pte, false)) continue;
        if (l2_.access(pte, false)) {
          ++c.pte_l2_hits;
        } else {
          ++c.pte_mem_misses;
        }
      }
      if (pwc.present() && walk.levels_touched > 1) {
        pwc.insert(addr, walk.levels_touched - 1);
      }
      // A full TLB miss drains the pipeline long enough to evict the thread
      // context on flush-style SMT (paper §3.2, "memory load stalls
      // typically evict the thread context").
      long_stall = true;
      break;
    }
  }

  // --- data caches --------------------------------------------------------
  if (!l1d_.access(addr, is_store)) {
    ++c.l1d_misses;
    if (!l2_.access(addr, is_store)) {
      ++c.l2d_misses;
      // The hardware stream prefetcher hides sequential-line misses within
      // a page; the first line of every new page — and any non-unit-stride
      // access — pays the full (contended) DRAM latency.
      if (prefetcher_covers(addr >> 6, tr.vpn)) {
        ++c.prefetch_covered;
      } else {
        long_stall = true;
      }
    }
  }

  if (long_stall) ++c.long_stalls;

  // --- instruction stream --------------------------------------------------
  if (jump_period_ != 0 && --until_jump_ == 0) {
    until_jump_ = jump_period_;
    instruction_jump();
  }
}

bool ThreadSim::prefetcher_covers(std::uint64_t line_addr,
                                  std::uint64_t page_id) {
  for (Stream& s : streams_) {
    if (!s.valid || s.page != page_id) continue;
    const std::uint64_t delta = line_addr - s.last_line;
    if (delta == 1 || delta == ~std::uint64_t{0}) {  // ±1 line
      s.last_line = line_addr;
      // A stream restarted at a page boundary needs to re-detect direction
      // and re-extend its prefetch distance: the first sequential miss
      // after (re)allocation is still exposed; later ones are covered.
      if (s.confidence >= 1) return true;
      ++s.confidence;
      return false;
    }
  }
  // Not covered: start (or restart) a stream at this line.
  Stream& slot = streams_[stream_rr_];
  stream_rr_ = (stream_rr_ + 1) % kStreams;
  slot.valid = true;
  slot.last_line = line_addr;
  slot.page = page_id;
  slot.confidence = 0;
  return false;
}

void ThreadSim::run_elems(vaddr_t addr, std::uint64_t n, std::int64_t stride,
                          PageKind kind, Access access) {
  if (!fast_path_) {
    // Reference configuration: the naive per-event loop, exactly as the
    // entry points behaved before the fast path existed.
    for (std::uint64_t i = 0; i < n; ++i) {
      const vaddr_t a =
          addr + static_cast<vaddr_t>(static_cast<std::int64_t>(i) * stride);
      touch_impl(a, kind, access, paging_.translate(a, kind));
    }
    return;
  }

  const bool is_store = access == Access::store;
  std::uint64_t i = 0;
  while (i < n) {
    // Lead access of a line segment: full per-event semantics (TLB walk,
    // cache fill, prefetcher, jump countdown — whatever applies).
    const vaddr_t a =
        addr + static_cast<vaddr_t>(static_cast<std::int64_t>(i) * stride);
    const paging::Translation tr = paging_.translate(a, kind);
    account_one(a, kind, access, tr);
    ++i;
    if (i >= n) break;

    // Closed-form count of followers that stay on the lead's 64-byte line
    // (the model hardwires 64-byte lines: see the addr >> 6 prefetcher
    // probe). A 64-byte line never straddles a page, so same line implies
    // same vpn.
    std::uint64_t f;
    if (stride == 0) {
      f = n - i;
    } else if (stride > 0) {
      f = (63 - (a & 63)) / static_cast<std::uint64_t>(stride);
    } else {
      f = (a & 63) / (0 - static_cast<std::uint64_t>(stride));
    }
    if (f > n - i) f = n - i;
    // The jump-triggering access must run through touch_impl; keep the bulk
    // strictly before the countdown reaches zero.
    if (jump_period_ != 0 && f >= until_jump_) f = until_jump_ - 1;
    if (f == 0) continue;

    // Every precondition is checked before anything is applied, so a
    // failed check costs nothing and the slow path resumes exactly where
    // the bulk would have started. A 64-byte line sits inside one 4 KB
    // page, so every follower shares the lead's effective translation
    // under any paging policy.
    if (tlbs_.data_mru_hit(tr.vpn, tr.kind) && l1d_.mru_hit(a)) {
      credit_line_run(f, is_store);
    } else if (walk_credit_ok(a, kind, tr)) {
      credit_walk_run(f, is_store);
    } else {
      continue;
    }
    i += f;
  }
}

void ThreadSim::touch_run(vaddr_t addr, std::size_t n, PageKind kind,
                          Access access) {
  if (sink_ != nullptr) sink_->on_touch_run(trace_tid_, addr, n, kind, access);
  run_elems(addr, n, sizeof(double), kind, access);
}

void ThreadSim::touch_strided(vaddr_t addr, std::size_t n,
                              std::int64_t stride_bytes, PageKind kind,
                              Access access) {
  if (stride_bytes == sizeof(double)) {
    touch_run(addr, n, kind, access);
    return;
  }
  if (sink_ != nullptr) {
    sink_->on_touch_strided(trace_tid_, addr, n, stride_bytes, kind, access);
  }
  run_elems(addr, n, stride_bytes, kind, access);
}

void ThreadSim::attach_code(vaddr_t base, std::size_t size, PageKind kind,
                            count_t jump_period, double cold_fraction) {
  LPOMP_CHECK(size > 0);
  code_base_ = base;
  code_kind_ = kind;
  code_pages_ = (size + page_size(kind) - 1) / page_size(kind);
  jump_period_ = jump_period;
  until_jump_ = jump_period == 0 ? 0 : jump_period;
  cold_fraction_ = cold_fraction;
}

void ThreadSim::instruction_jump() {
  // The hot working set (the parallel loop bodies and runtime entry points)
  // spans the first kHotCodePages pages; cold jumps (startup helpers, rare
  // library calls) target a uniform page of the binary.
  std::size_t page;
  if (rng_.next_double() < cold_fraction_) {
    page = static_cast<std::size_t>(rng_.next_below(code_pages_));
  } else {
    page = static_cast<std::size_t>(
        rng_.next_below(std::min(code_pages_, kHotCodePages)));
  }
  const vaddr_t addr =
      code_base_ + static_cast<vaddr_t>(page) * page_size(code_kind_);
  const vpn_t vpn = addr >> page_shift(code_kind_);

  ++counters_.itlb_lookups;
  if (!tlbs_.instr_access(vpn, code_kind_)) {
    ++counters_.itlb_misses;
  }
}

}  // namespace lpomp::sim

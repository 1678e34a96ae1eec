// Naive single-step reference simulator — the differential oracle for the
// production fast path (DESIGN.md §7).
//
// Every structure here is the *obvious* implementation: per-set linear
// scans, one timestamp stamped on every hit, no MRU filters, no probe
// hints, no bulk credits. Each entry point accounts exactly one event at a
// time. The production ThreadSim must produce counter-for-counter identical
// results; test_sim_differential drives randomized access streams through
// both and asserts equality after every stream.
//
// One deliberate, provably observation-equivalent simplification:
//
//  * TLB, cache and PWC hits here stamp `last_use = ++clock` on every hit.
//    Production keeps all three in one tag store (cache::LruSets), whose
//    1-entry MRU-filter hit advances neither the clock nor the slot's
//    timestamp. Equivalent because every production stamp — a hint hit, a
//    scan hit, a fill of a present tag, a fill of a victim — moves the
//    filter to the stamped tag, so the filter's tag always holds the newest
//    stamp of its set: re-stamping the set's most recent use changes no
//    relative last_use order, and LRU victim selection (unique, monotonic
//    timestamps — no ties) depends only on relative order. The same
//    argument covers a bulk credit of n filter hits, and a clock shared by
//    a TLB's banks here versus one clock per bank in production (only the
//    order within a set matters).
//    Likewise the victim's *slot* within a set is unobservable: hits scan
//    the whole set and set contents are a multiset.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache.hpp"
#include "mem/address_space.hpp"
#include "mem/page_table.hpp"
#include "paging/policy.hpp"
#include "sim/cost_model.hpp"
#include "sim/thread_sim.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"
#include "tlb/pwc.hpp"
#include "tlb/tlb.hpp"

namespace lpomp::oracle {

/// One TLB level, naive: three banks (4 KB / 2 MB / 1 GiB), true LRU by
/// per-set scan.
class RefTlb {
 public:
  struct Stats {
    count_t lookups[kPageKindCount] = {0, 0, 0};
    count_t hits[kPageKindCount] = {0, 0, 0};
  };

  explicit RefTlb(const tlb::Tlb::Config& cfg) {
    init_bank(bank4k_, cfg.small4k);
    init_bank(bank2m_, cfg.large2m);
    init_bank(bank1g_, cfg.huge1g);
  }

  bool supports(PageKind kind) const { return bank(kind).geom.present(); }

  bool lookup(vpn_t vpn, PageKind kind) {
    Bank& b = bank(kind);
    // Lookups are counted before the present check, exactly like the
    // production Tlb::lookup (stats first, lookup_assoc bails on !present).
    ++stats_.lookups[static_cast<std::size_t>(kind)];
    if (!b.geom.present()) return false;
    Entry* base = set_base(b, vpn);
    for (unsigned w = 0; w < b.geom.ways; ++w) {
      Entry& e = base[w];
      if (e.valid && e.vpn == vpn) {
        e.last_use = ++clock_;
        ++stats_.hits[static_cast<std::size_t>(kind)];
        return true;
      }
    }
    return false;
  }

  void insert(vpn_t vpn, PageKind kind) {
    Bank& b = bank(kind);
    if (!b.geom.present()) return;
    Entry* base = set_base(b, vpn);
    Entry* victim = &base[0];
    for (unsigned w = 0; w < b.geom.ways; ++w) {
      Entry& e = base[w];
      if (e.valid && e.vpn == vpn) {
        e.last_use = ++clock_;  // refill of a present entry: restamp only
        return;
      }
      if (!e.valid) {
        victim = &e;
        break;
      }
      if (e.last_use < victim->last_use) victim = &e;
    }
    victim->valid = true;
    victim->vpn = vpn;
    victim->last_use = ++clock_;
  }

  void flush() {
    for (Bank* b : {&bank4k_, &bank2m_, &bank1g_}) {
      for (Entry& e : b->entries) e.valid = false;
    }
  }

  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    vpn_t vpn = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };
  struct Bank {
    tlb::TlbGeometry geom;
    std::vector<Entry> entries;  // sets * ways, set-major
    unsigned sets = 0;
  };

  static void init_bank(Bank& b, const tlb::TlbGeometry& geom) {
    b.geom = geom;
    if (geom.present()) {
      b.entries.assign(geom.entries, Entry{});
      b.sets = geom.sets();
    }
  }

  Entry* set_base(Bank& b, vpn_t vpn) {
    const unsigned set = static_cast<unsigned>(vpn % b.sets);
    return &b.entries[static_cast<std::size_t>(set) * b.geom.ways];
  }

  Bank& bank(PageKind kind) {
    if (kind == PageKind::small4k) return bank4k_;
    return kind == PageKind::large2m ? bank2m_ : bank1g_;
  }
  const Bank& bank(PageKind kind) const {
    if (kind == PageKind::small4k) return bank4k_;
    return kind == PageKind::large2m ? bank2m_ : bank1g_;
  }

  Bank bank4k_;
  Bank bank2m_;
  Bank bank1g_;
  std::uint64_t clock_ = 0;  // shared across banks, like the production Tlb
  Stats stats_;
};

/// Naive page-walk cache: one flat tag list per interior level, true LRU by
/// whole-level scan inside the set, stamp on hit. Mirrors tlb::Pwc
/// observation-for-observation: same set mapping (tag mod sets), same
/// deepest-first probe order, same clock shared across levels, and the same
/// stamp sequence (a probe stamps only the level that hits; an install
/// restamps levels root-first).
class RefPwc {
 public:
  RefPwc() = default;
  explicit RefPwc(const tlb::PwcConfig& config) : config_(config) {
    if (!config_.present()) return;
    LPOMP_CHECK(config_.ways > 0 && config_.entries % config_.ways == 0);
    sets_ = config_.entries / config_.ways;
    for (auto& level : levels_) level.assign(config_.entries, Entry{});
  }

  bool present() const { return config_.present(); }

  int deepest_cached(vaddr_t addr, unsigned interior_levels) {
    ++stats_.lookups;
    for (int l = static_cast<int>(interior_levels) - 1; l >= 0; --l) {
      const std::uint64_t t = tag(addr, static_cast<unsigned>(l));
      Entry* base = set_base(static_cast<unsigned>(l), t);
      for (unsigned w = 0; w < config_.ways; ++w) {
        if (base[w].valid && base[w].tag == t) {
          base[w].last_use = ++clock_;
          ++stats_.hits;
          return l;
        }
      }
    }
    return -1;
  }

  void insert(vaddr_t addr, unsigned interior_levels) {
    for (unsigned l = 0; l < interior_levels; ++l) {
      const std::uint64_t t = tag(addr, l);
      Entry* base = set_base(l, t);
      Entry* victim = &base[0];
      bool found = false;
      for (unsigned w = 0; w < config_.ways; ++w) {
        Entry& e = base[w];
        if (e.valid && e.tag == t) {
          e.last_use = ++clock_;
          found = true;
          break;
        }
        if (!e.valid) {
          victim = &e;
          break;
        }
        if (e.last_use < victim->last_use) victim = &e;
      }
      if (found) continue;
      victim->valid = true;
      victim->tag = t;
      victim->last_use = ++clock_;
    }
  }

  void flush() {
    for (auto& level : levels_) {
      for (Entry& e : level) e.valid = false;
    }
  }

  const tlb::Pwc::Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t tag = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  static std::uint64_t tag(vaddr_t addr, unsigned l) {
    const unsigned shift =
        static_cast<unsigned>(kSmallPageShift) +
        mem::PageTable::kBitsPerLevel * (mem::PageTable::kLevels - 1 - l);
    return addr >> shift;
  }

  Entry* set_base(unsigned l, std::uint64_t t) {
    const unsigned set = static_cast<unsigned>(t % sets_);
    return &levels_[l][static_cast<std::size_t>(set) * config_.ways];
  }

  tlb::PwcConfig config_;
  unsigned sets_ = 0;
  std::vector<Entry> levels_[mem::PageTable::kLevels - 1];
  std::uint64_t clock_ = 0;
  tlb::Pwc::Stats stats_;
};

/// Set-associative cache, naive: per-set scan, stamp on every hit.
class RefCache {
 public:
  struct Stats {
    count_t lookups = 0;
    count_t hits = 0;
    count_t store_lookups = 0;
  };

  explicit RefCache(const cache::CacheGeometry& geom) : geom_(geom) {
    LPOMP_CHECK(geom_.present());
    lines_.assign(geom_.lines(), Line{});
    sets_ = geom_.sets();
    line_mask_ = geom_.line_bytes - 1;
  }

  bool access(vaddr_t addr, bool is_store) {
    ++stats_.lookups;
    if (is_store) ++stats_.store_lookups;
    const std::uint64_t line_addr = addr / geom_.line_bytes;
    const std::size_t set = static_cast<std::size_t>(line_addr % sets_);
    Line* base = &lines_[set * geom_.ways];
    for (unsigned w = 0; w < geom_.ways; ++w) {
      Line& l = base[w];
      if (l.valid && l.tag == line_addr) {
        l.last_use = ++clock_;
        ++stats_.hits;
        return true;
      }
    }
    // Miss: fill the first invalid way, else the true-LRU victim. (The slot
    // choice is unobservable anyway; see the header comment.)
    Line* victim = nullptr;
    for (unsigned w = 0; w < geom_.ways; ++w) {
      Line& l = base[w];
      if (!l.valid) {
        victim = &l;
        break;
      }
      if (victim == nullptr || l.last_use < victim->last_use) victim = &l;
    }
    victim->valid = true;
    victim->tag = line_addr;
    victim->last_use = ++clock_;
    return false;
  }

  const Stats& stats() const { return stats_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };

  cache::CacheGeometry geom_;
  std::vector<Line> lines_;
  std::size_t sets_ = 0;
  std::uint64_t line_mask_ = 0;
  std::uint64_t clock_ = 0;
  Stats stats_;
};

/// Naive mirror of tlb::TlbHierarchy: same refill policy, same counters.
class RefTlbHierarchy {
 public:
  RefTlbHierarchy(const tlb::Tlb::Config& itlb, const tlb::Tlb::Config& l1d,
                  const std::optional<tlb::Tlb::Config>& l2d)
      : itlb_(itlb), l1d_(l1d) {
    if (l2d) l2d_.emplace(*l2d);
  }

  tlb::DtlbHit data_access(vpn_t vpn, PageKind kind) {
    if (l1d_.lookup(vpn, kind)) return tlb::DtlbHit::l1;
    if (l2d_ && l2d_->supports(kind) && l2d_->lookup(vpn, kind)) {
      l1d_.insert(vpn, kind);
      return tlb::DtlbHit::l2;
    }
    ++walks_[static_cast<std::size_t>(kind)];
    l1d_.insert(vpn, kind);
    if (l2d_ && l2d_->supports(kind)) l2d_->insert(vpn, kind);
    return tlb::DtlbHit::walk;
  }

  bool instr_access(vpn_t vpn, PageKind kind) {
    if (itlb_.lookup(vpn, kind)) return true;
    itlb_.insert(vpn, kind);
    return false;
  }

  void flush_all() {
    itlb_.flush();
    l1d_.flush();
    if (l2d_) l2d_->flush();
    pwc_.flush();
  }

  void set_pwc(const tlb::PwcConfig& config) { pwc_ = RefPwc(config); }

  const RefTlb& itlb() const { return itlb_; }
  const RefTlb& l1d() const { return l1d_; }
  bool has_l2d() const { return l2d_.has_value(); }
  const RefTlb& l2d() const { return *l2d_; }
  RefPwc& pwc() { return pwc_; }
  const RefPwc& pwc() const { return pwc_; }
  count_t walk_count(PageKind kind) const {
    return walks_[static_cast<std::size_t>(kind)];
  }

 private:
  RefTlb itlb_;
  RefTlb l1d_;
  std::optional<RefTlb> l2d_;
  RefPwc pwc_;
  count_t walks_[kPageKindCount] = {0, 0, 0};
};

/// The reference thread simulator: sim::ThreadSim::touch_impl transliterated
/// onto the naive structures, one event per call, no fast paths anywhere.
class RefThreadSim {
 public:
  RefThreadSim(const sim::CostModel& cm, const mem::AddressSpace& space,
               const tlb::Tlb::Config& itlb, const tlb::Tlb::Config& l1_dtlb,
               const std::optional<tlb::Tlb::Config>& l2_dtlb,
               const cache::CacheGeometry& l1d, const cache::CacheGeometry& l2,
               std::uint64_t seed)
      : cm_(&cm),
        space_(&space),
        tlbs_(itlb, l1_dtlb, l2_dtlb),
        l1d_(l1d),
        l2_(l2),
        contended_mem_stall_(cm.mem_stall),
        rng_(seed) {}

  void touch(vaddr_t addr, PageKind kind, Access access) {
    sim::ThreadCounters& c = counters_;
    ++c.accesses;
    const bool is_store = access == Access::store;
    if (is_store) ++c.stores;
    c.exec_cycles += cm_->exec_per_access;

    bool long_stall = false;

    const paging::Translation tr = paging_.translate(addr, kind);
    switch (tlbs_.data_access(tr.vpn, tr.kind)) {
      case tlb::DtlbHit::l1:
        break;
      case tlb::DtlbHit::l2:
        ++c.dtlb_l1_misses;
        ++c.dtlb_l2_hits;
        c.stall_cycles += cm_->dtlb_l2_hit_stall;
        break;
      case tlb::DtlbHit::walk: {
        ++c.dtlb_l1_misses;
        ++c.dtlb_walks[static_cast<std::size_t>(tr.kind)];
        const mem::WalkResult walk = paging_.walk(*space_, addr, kind, tr.kind);
        unsigned first = 0;
        RefPwc& pwc = tlbs_.pwc();
        if (pwc.present() && walk.levels_touched > 1) {
          const int d = pwc.deepest_cached(addr, walk.levels_touched - 1);
          if (d >= 0) {
            first = static_cast<unsigned>(d) + 1;
            c.pwc_hits += first;
          }
        }
        c.walk_levels += walk.levels_touched - first;
        for (unsigned l = first; l < walk.levels_touched; ++l) {
          c.stall_cycles += cm_->walk_level_stall;
          const vaddr_t pte = walk.entry_addr[l];
          if (l1d_.access(pte, false)) continue;
          if (l2_.access(pte, false)) {
            c.stall_cycles += cm_->l2_hit_stall;
          } else {
            c.stall_cycles += contended_mem_stall_;
          }
        }
        if (pwc.present() && walk.levels_touched > 1) {
          pwc.insert(addr, walk.levels_touched - 1);
        }
        long_stall = true;
        break;
      }
    }

    if (l1d_.access(addr, is_store)) {
      c.stall_cycles += cm_->l1_hit_stall;
    } else {
      ++c.l1d_misses;
      if (l2_.access(addr, is_store)) {
        c.stall_cycles += cm_->l2_hit_stall;
      } else {
        ++c.l2d_misses;
        if (prefetcher_covers(addr >> 6, tr.vpn)) {
          ++c.prefetch_covered;
          c.stall_cycles += cm_->prefetched_stall;
        } else {
          c.stall_cycles += contended_mem_stall_;
          long_stall = true;
        }
      }
    }

    if (long_stall) ++c.long_stalls;

    if (jump_period_ != 0 && --until_jump_ == 0) {
      until_jump_ = jump_period_;
      instruction_jump();
    }
  }

  void touch_run(vaddr_t addr, std::size_t n, PageKind kind, Access access) {
    touch_strided(addr, n, static_cast<std::int64_t>(sizeof(double)), kind,
                  access);
  }

  void touch_strided(vaddr_t addr, std::size_t n, std::int64_t stride_bytes,
                     PageKind kind, Access access) {
    for (std::size_t i = 0; i < n; ++i) {
      touch(addr + static_cast<vaddr_t>(static_cast<std::int64_t>(i) *
                                        stride_bytes),
            kind, access);
    }
  }

  void add_compute(cycles_t cycles) { counters_.exec_cycles += cycles; }

  void attach_code(vaddr_t base, std::size_t size, PageKind kind,
                   count_t jump_period, double cold_fraction) {
    LPOMP_CHECK(size > 0);
    code_base_ = base;
    code_kind_ = kind;
    code_pages_ = (size + page_size(kind) - 1) / page_size(kind);
    jump_period_ = jump_period;
    until_jump_ = jump_period == 0 ? 0 : jump_period;
    cold_fraction_ = cold_fraction;
  }

  void set_active_threads(unsigned n) {
    contended_mem_stall_ = cm_->contended_mem_stall(n);
  }

  void set_paging(const paging::PolicySpec& spec) {
    paging_ = paging::PagingModel(spec);
  }

  void set_pwc(const tlb::PwcConfig& config) { tlbs_.set_pwc(config); }

  void flush_tlbs() { tlbs_.flush_all(); }

  const sim::ThreadCounters& counters() const { return counters_; }
  const RefTlbHierarchy& tlbs() const { return tlbs_; }
  const RefCache& l1d() const { return l1d_; }
  const RefCache& l2() const { return l2_; }

 private:
  static constexpr std::size_t kHotCodePages = 12;
  static constexpr unsigned kStreams = 16;

  void instruction_jump() {
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
      counters_.stall_cycles += cm_->itlb_miss_stall;
    }
  }

  bool prefetcher_covers(std::uint64_t line_addr, std::uint64_t page_id) {
    for (Stream& s : streams_) {
      if (!s.valid || s.page != page_id) continue;
      const std::uint64_t delta = line_addr - s.last_line;
      if (delta == 1 || delta == ~std::uint64_t{0}) {
        s.last_line = line_addr;
        if (s.confidence >= 1) return true;
        ++s.confidence;
        return false;
      }
    }
    Stream& slot = streams_[stream_rr_];
    stream_rr_ = (stream_rr_ + 1) % kStreams;
    slot.valid = true;
    slot.last_line = line_addr;
    slot.page = page_id;
    slot.confidence = 0;
    return false;
  }

  struct Stream {
    std::uint64_t last_line = 0;
    std::uint64_t page = 0;
    std::uint8_t confidence = 0;
    bool valid = false;
  };

  const sim::CostModel* cm_;
  const mem::AddressSpace* space_;
  paging::PagingModel paging_;
  RefTlbHierarchy tlbs_;
  RefCache l1d_;
  RefCache l2_;
  cycles_t contended_mem_stall_;

  vaddr_t code_base_ = 0;
  std::size_t code_pages_ = 0;
  PageKind code_kind_ = PageKind::small4k;
  count_t jump_period_ = 0;
  count_t until_jump_ = 0;
  double cold_fraction_ = 0.0;

  Stream streams_[kStreams];
  unsigned stream_rr_ = 0;

  Rng rng_;
  sim::ThreadCounters counters_;
};

}  // namespace lpomp::oracle

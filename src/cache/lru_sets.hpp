// Set-associative true-LRU tag store: the one engine behind the TLB banks,
// the data caches and the page-walk cache.
//
// Layout: `entries` 16-byte slots, set-major, each a {tag, last_use} pair
// whose empty tag is the kEmpty sentinel. Every stamp draws a unique
// timestamp from a private clock, so the LRU victim of a full set is
// always well defined. Valid slots form a prefix of each set (a fill takes
// the first empty slot and only flush() empties slots, all at once), so a
// scan stops at the first empty slot.
//
// LRU rule: every stamp — a hint hit, a scan hit, a fill of a present tag
// or a fill of a victim — moves the 1-entry MRU filter to the stamped tag.
// The filter's tag therefore always holds the newest timestamp of its set,
// and a hit on it needs no restamp: restamping the newest entry changes no
// relative order, and victim selection depends only on relative order.
// That is why the filter check is inline and side-effect free, and why
// credit_mru(n) changes nothing.
//
// Behind the filter sits a direct-mapped table of tag → slot hints. A hint
// is verified against the slot's tag before use, and a valid tag lives in
// exactly one slot, so a verified hint is the scan's hit without the scan:
// hints never change an outcome, stale ones are harmless.
#pragma once

#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace lpomp::cache {

class LruSets {
 public:
  /// Tag of an empty slot and of an empty MRU filter. Owners derive tags by
  /// right-shifting addresses, so no tag they pass reaches it.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// `entries` tags in sets of `ways`; `hint_slots` (a power of two) sizes
  /// the hint table. Throws std::logic_error unless ways > 0, entries holds
  /// at least one full set and entries divides evenly into ways.
  LruSets(std::size_t entries, unsigned ways, std::size_t hint_slots);

  /// True when `tag` sits in the MRU filter: a guaranteed hit that changes
  /// no LRU state.
  bool mru_hit(std::uint64_t tag) const { return mru_ == tag; }

  /// True if `tag` is held. A hit outside the filter stamps it.
  bool find(std::uint64_t tag) { return mru_ == tag || find_scan(tag); }

  /// find-or-fill in one scan: true on a hit (stamped as find() does);
  /// on a miss `tag` replaces the set's first empty slot or its LRU victim.
  bool access(std::uint64_t tag) { return mru_ == tag || access_scan(tag); }

  /// Installs `tag` (stamping it if already present).
  void fill(std::uint64_t tag) { access(tag); }

  /// The LRU effect of `n` hits the caller has proven would each hit the
  /// MRU filter: none (see the rule above). Exists so a bulk credit names
  /// the operation it stands for.
  void credit_mru(count_t /*n*/) const {}

  /// Empties every slot and the MRU filter.
  void flush();

  /// Tags currently held; never above the constructor's `entries`.
  std::size_t occupancy() const;

 private:
  struct Slot {
    std::uint64_t tag = kEmpty;
    std::uint64_t last_use = 0;
  };

  /// Index of the first slot of `tag`'s set.
  std::size_t set_base(std::uint64_t tag) const {
    const std::uint64_t set = pow2_sets_ ? (tag & set_mask_) : (tag % sets_);
    return static_cast<std::size_t>(set) * ways_;
  }
  /// Gives slot `i` (already holding `tag`) the newest timestamp and points
  /// the MRU filter and `tag`'s hint at it.
  void stamp(std::size_t i, std::uint64_t tag, std::size_t hint) {
    slots_[i].last_use = ++clock_;
    mru_ = tag;
    hints_[hint] = static_cast<std::uint32_t>(i);
  }

  bool find_scan(std::uint64_t tag);
  bool access_scan(std::uint64_t tag);

  std::uint64_t mru_ = kEmpty;
  std::vector<Slot> slots_;  // sets_ * ways_, set-major
  unsigned ways_;
  std::uint64_t sets_;
  std::uint64_t set_mask_;  ///< sets_ - 1 when sets_ is a power of two
  bool pow2_sets_;
  std::uint64_t clock_ = 0;
  std::size_t hint_mask_;
  std::vector<std::uint32_t> hints_;
};

}  // namespace lpomp::cache

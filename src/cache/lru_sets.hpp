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
// or a fill of a victim — records the stamped tag as its set's newest and
// moves the global 1-entry MRU filter to it. A set's newest tag holds that
// set's newest timestamp, so a hit on it needs no restamp: restamping the
// newest entry of a set changes no relative order within the set, and
// victim selection depends only on relative order within a set. That is
// why mru_hit() is inline and side-effect free, why it holds for the newest
// tag of *every* set (not only the last one stamped, which the global
// filter checks first), and why n such hits in bulk need no update at all.
//
// Behind the filter sits a direct-mapped table of tag → slot hints. A hint
// is verified against the slot's tag before use, and a valid tag lives in
// exactly one slot, so a verified hint is the scan's hit without the scan:
// hints never change an outcome, stale ones are harmless. find() and
// access() check the global filter and then the verified hint inline; only
// a real scan of the set is out of line. find_hinted() is those two inline
// checks alone: a caller that can take the scan's path later (a full
// access()) probes for a hit at no cost when the hint misses.
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

  /// True when `tag` is the newest tag of its set: a guaranteed hit that
  /// changes no LRU state.
  bool mru_hit(std::uint64_t tag) const {
    return mru_ == tag || newest_[set_of(tag)] == tag;
  }

  /// True if `tag` is held. A hit outside the global filter stamps it.
  bool find(std::uint64_t tag) {
    if (mru_ == tag) [[likely]] return true;
    const std::size_t hint = hint_of(tag);
    return hint_hit(tag, hint) || find_scan(tag, hint);
  }

  /// find() without the scan: true when `tag` is the global filter's tag
  /// or its verified hint's, stamped as find() stamps it; otherwise false,
  /// changing nothing, even when the set holds `tag`.
  bool find_hinted(std::uint64_t tag) {
    return mru_ == tag || hint_hit(tag, hint_of(tag));
  }

  /// find-or-fill in one scan: true on a hit (stamped as find() does);
  /// on a miss `tag` replaces the set's first empty slot or its LRU victim.
  bool access(std::uint64_t tag) {
    if (mru_ == tag) [[likely]] return true;
    const std::size_t hint = hint_of(tag);
    return hint_hit(tag, hint) || access_scan(tag, hint);
  }

  /// Installs `tag` (stamping it if already present).
  void fill(std::uint64_t tag) { access(tag); }

  /// Empties every slot and the MRU filters.
  void flush();

  /// Tags currently held; never above the constructor's `entries`.
  std::size_t occupancy() const;

 private:
  struct Slot {
    std::uint64_t tag = kEmpty;
    std::uint64_t last_use = 0;
  };

  /// Index of `tag`'s set.
  std::size_t set_of(std::uint64_t tag) const {
    return static_cast<std::size_t>(pow2_sets_ ? (tag & set_mask_)
                                               : (tag % sets_));
  }
  std::size_t hint_of(std::uint64_t tag) const {
    return static_cast<std::size_t>(tag) & hint_mask_;
  }
  /// Gives slot `i` (already holding `tag`, in set `set`) the newest
  /// timestamp and points both MRU filters and `tag`'s hint at it.
  void stamp(std::size_t i, std::uint64_t tag, std::size_t set,
             std::size_t hint) {
    slots_[i].last_use = ++clock_;
    mru_ = tag;
    newest_[set] = tag;
    hints_[hint] = static_cast<std::uint32_t>(i);
  }

  /// Stamps `tag` and returns true when its hint slot `hint` holds it.
  bool hint_hit(std::uint64_t tag, std::size_t hint) {
    const std::uint32_t i = hints_[hint];
    if (slots_[i].tag != tag) return false;
    stamp(i, tag, set_of(tag), hint);
    return true;
  }

  bool find_scan(std::uint64_t tag, std::size_t hint);
  bool access_scan(std::uint64_t tag, std::size_t hint);

  std::uint64_t mru_ = kEmpty;  ///< the last tag stamped, in any set
  std::vector<Slot> slots_;  // sets_ * ways_, set-major
  std::vector<std::uint64_t> newest_;  ///< per set: its newest tag or kEmpty
  unsigned ways_;
  std::uint64_t sets_;
  std::uint64_t set_mask_;  ///< sets_ - 1 when sets_ is a power of two
  bool pow2_sets_;
  std::uint64_t clock_ = 0;
  std::size_t hint_mask_;
  std::vector<std::uint32_t> hints_;
};

}  // namespace lpomp::cache

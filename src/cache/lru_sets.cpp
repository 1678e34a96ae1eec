#include "cache/lru_sets.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include "support/error.hpp"

namespace lpomp::cache {

LruSets::LruSets(std::size_t entries, unsigned ways, std::size_t hint_slots)
    : ways_(ways) {
  LPOMP_CHECK_MSG(ways > 0 && entries >= ways && entries % ways == 0,
                  "need ways > 0, at least one full set, and entries "
                  "divisible by ways");
  LPOMP_CHECK_MSG(entries <= std::numeric_limits<std::uint32_t>::max(),
                  "slot indices must fit the 32-bit hint table");
  LPOMP_CHECK(std::has_single_bit(hint_slots));
  tags_.assign(entries, kEmpty);
  stamps_.assign(entries, 0);
  sets_ = entries / ways;  // sets need not be 2^k (modulo fallback)
  newest_.assign(static_cast<std::size_t>(sets_), kEmpty);
  pow2_sets_ = std::has_single_bit(sets_);
  set_mask_ = pow2_sets_ ? sets_ - 1 : 0;
  hint_mask_ = hint_slots - 1;
  hints_.assign(hint_slots, 0);
}

bool LruSets::find_scan(std::uint64_t tag, std::size_t hint) {
  const std::size_t set = set_of(tag);
  const std::size_t base = set * ways_;
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (tags_[i] == tag) {
      stamp(i, tag, set, hint);
      return true;
    }
    if (tags_[i] == kEmpty) break;
  }
  return false;
}

bool LruSets::access_scan(std::uint64_t tag, std::size_t hint) {
  const std::size_t set = set_of(tag);
  const std::size_t base = set * ways_;
  std::size_t victim = base;
  // The oldest stamp so far stays in a register and is kept by selects, not
  // branches: comparing against stamps_[victim] would chain every step on a
  // load through the previous choice, and a branch on stamps mispredicts
  // under random streams.
  std::uint32_t oldest = kClockMax;
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (tags_[i] == tag) {
      stamp(i, tag, set, hint);
      return true;
    }
    if (tags_[i] == kEmpty) {
      victim = i;
      break;
    }
    const bool older = stamps_[i] < oldest;
    victim = older ? i : victim;
    oldest = older ? stamps_[i] : oldest;
  }
  tags_[victim] = tag;
  stamp(victim, tag, set, hint);
  return false;
}

void LruSets::renumber() {
  // A slot's new stamp is 1 + the number of older slots in its set.
  std::vector<std::uint32_t> ranks(ways_);
  for (std::size_t base = 0; base < stamps_.size(); base += ways_) {
    for (unsigned a = 0; a < ways_; ++a) {
      ranks[a] = 1;
      for (unsigned b = 0; b < ways_; ++b) {
        ranks[a] += stamps_[base + b] < stamps_[base + a] ? 1 : 0;
      }
    }
    std::copy(ranks.begin(), ranks.end(), stamps_.begin() + base);
  }
  clock_ = ways_;
}

void LruSets::flush() {
  for (std::uint64_t& t : tags_) t = kEmpty;
  newest_.assign(newest_.size(), kEmpty);
  mru_ = kEmpty;
}

std::size_t LruSets::occupancy() const {
  std::size_t n = 0;
  for (const std::uint64_t t : tags_) n += t != kEmpty ? 1 : 0;
  return n;
}

}  // namespace lpomp::cache

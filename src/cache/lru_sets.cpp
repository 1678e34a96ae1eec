#include "cache/lru_sets.hpp"

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
  slots_.assign(entries, Slot{});
  sets_ = entries / ways;  // sets need not be 2^k (modulo fallback)
  pow2_sets_ = std::has_single_bit(sets_);
  set_mask_ = pow2_sets_ ? sets_ - 1 : 0;
  hint_mask_ = hint_slots - 1;
  hints_.assign(hint_slots, 0);
}

bool LruSets::find_scan(std::uint64_t tag) {
  const std::size_t hint = static_cast<std::size_t>(tag) & hint_mask_;
  if (slots_[hints_[hint]].tag == tag) {
    stamp(hints_[hint], tag, hint);
    return true;
  }
  const std::size_t base = set_base(tag);
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (slots_[i].tag == tag) {
      stamp(i, tag, hint);
      return true;
    }
    if (slots_[i].tag == kEmpty) break;
  }
  return false;
}

bool LruSets::access_scan(std::uint64_t tag) {
  const std::size_t hint = static_cast<std::size_t>(tag) & hint_mask_;
  if (slots_[hints_[hint]].tag == tag) {
    stamp(hints_[hint], tag, hint);
    return true;
  }
  const std::size_t base = set_base(tag);
  std::size_t victim = base;
  // The oldest stamp so far stays in a register and is kept by selects, not
  // branches: comparing against slots_[victim] would chain every step on a
  // load through the previous choice, and a branch on stamps mispredicts
  // under random streams.
  std::uint64_t oldest = ~std::uint64_t{0};
  for (std::size_t i = base; i < base + ways_; ++i) {
    if (slots_[i].tag == tag) {
      stamp(i, tag, hint);
      return true;
    }
    if (slots_[i].tag == kEmpty) {
      victim = i;
      break;
    }
    const bool older = slots_[i].last_use < oldest;
    victim = older ? i : victim;
    oldest = older ? slots_[i].last_use : oldest;
  }
  slots_[victim].tag = tag;
  stamp(victim, tag, hint);
  return false;
}

void LruSets::flush() {
  for (Slot& s : slots_) s.tag = kEmpty;
  mru_ = kEmpty;
}

std::size_t LruSets::occupancy() const {
  std::size_t n = 0;
  for (const Slot& s : slots_) n += s.tag != kEmpty ? 1 : 0;
  return n;
}

}  // namespace lpomp::cache

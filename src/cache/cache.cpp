#include "cache/cache.hpp"

#include <bit>

namespace lpomp::cache {

CacheGeometry CacheGeometry::shared_slice(unsigned sharers) const {
  LPOMP_CHECK(sharers > 0);
  if (sharers == 1 || !present()) return *this;
  CacheGeometry slice = *this;
  slice.size_bytes = size_bytes / sharers;
  // Keep the slice well-formed: at least one full set.
  const std::size_t min_bytes = static_cast<std::size_t>(ways) * line_bytes;
  if (slice.size_bytes < min_bytes) slice.size_bytes = min_bytes;
  slice.size_bytes = slice.size_bytes / min_bytes * min_bytes;
  return slice;
}

Cache::Cache(std::string name, CacheGeometry geom)
    : name_(std::move(name)), geom_(geom) {
  LPOMP_CHECK_MSG(geom_.present(), "cache must have nonzero size");
  LPOMP_CHECK_MSG(
      std::has_single_bit(geom_.line_bytes) && geom_.line_bytes > 1,
      "line size must be a power of two above one byte");
  line_shift_ = static_cast<std::size_t>(std::countr_zero(geom_.line_bytes));
  sets_ = geom_.sets();  // sets need not be 2^k (modulo fallback below)
  pow2_sets_ = std::has_single_bit(sets_);
  set_mask_ = pow2_sets_ ? sets_ - 1 : 0;
  lines_.assign(geom_.lines(), Line{});
  probe_.assign(kProbeSlots, 0);
}

bool Cache::access_assoc(std::uint64_t line_addr) {
  // A verified hint is the associative hit without the scan: a valid line
  // whose tag equals line_addr can only live in line_addr's set, and a set
  // never holds duplicates, so the match is *the* cached copy.
  const std::size_t slot =
      static_cast<std::size_t>(line_addr) & (kProbeSlots - 1);
  {
    Line& h = lines_[probe_[slot]];
    if (h.tag == line_addr) {
      h.last_use = ++clock_;
      mru_line_ = line_addr;
      ++stats_.hits;
      return true;
    }
  }

  const std::size_t set = static_cast<std::size_t>(
      pow2_sets_ ? (line_addr & set_mask_) : (line_addr % sets_));
  const std::size_t base_index = set * geom_.ways;
  Line* base = &lines_[base_index];

  Line* victim = &base[0];
  for (unsigned w = 0; w < geom_.ways; ++w) {
    Line& l = base[w];
    if (l.tag == line_addr) {
      l.last_use = ++clock_;
      mru_line_ = line_addr;
      probe_[slot] = static_cast<std::uint32_t>(base_index + w);
      ++stats_.hits;
      return true;
    }
    if (l.tag == kEmpty) {
      victim = &l;
    } else if (victim->tag != kEmpty && l.last_use < victim->last_use) {
      victim = &l;
    }
  }

  // Miss: allocate (write-allocate policy covers stores too).
  victim->tag = line_addr;
  victim->last_use = ++clock_;
  mru_line_ = line_addr;
  probe_[slot] =
      static_cast<std::uint32_t>(base_index + static_cast<std::size_t>(victim - base));
  return false;
}

void Cache::flush() {
  for (Line& l : lines_) l.tag = kEmpty;
  mru_line_ = kEmpty;
}

}  // namespace lpomp::cache

#include "cache/cache.hpp"

#include <bit>

namespace lpomp::cache {

CacheGeometry CacheGeometry::shared_slice(unsigned sharers) const {
  LPOMP_CHECK(sharers > 0);
  if (sharers == 1 || !present()) return *this;
  LPOMP_CHECK(ways > 0 && line_bytes > 0);
  CacheGeometry slice = *this;
  slice.size_bytes = size_bytes / sharers;
  // Keep the slice well-formed: at least one full set.
  const std::size_t min_bytes = static_cast<std::size_t>(ways) * line_bytes;
  if (slice.size_bytes < min_bytes) slice.size_bytes = min_bytes;
  slice.size_bytes = slice.size_bytes / min_bytes * min_bytes;
  return slice;
}

namespace {

/// The geometry checks LruSets cannot make: a size to divide into lines and
/// a line size that is a shift.
const CacheGeometry& checked(const CacheGeometry& geom) {
  LPOMP_CHECK_MSG(geom.present(), "cache must have nonzero size");
  LPOMP_CHECK_MSG(std::has_single_bit(geom.line_bytes) && geom.line_bytes > 1,
                  "line size must be a power of two above one byte");
  return geom;
}

}  // namespace

Cache::Cache(std::string name, CacheGeometry geom)
    : name_(std::move(name)),
      geom_(checked(geom)),
      line_shift_(static_cast<std::size_t>(std::countr_zero(geom_.line_bytes))),
      tags_(geom_.lines(), geom_.ways, kHintSlots) {}

}  // namespace lpomp::cache

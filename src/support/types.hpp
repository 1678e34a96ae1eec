// Fundamental scalar types shared across all lpomp modules.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/names.hpp"

namespace lpomp {

/// Simulated virtual address. The simulator keeps its own 64-bit address
/// space decoupled from host pointers so that footprints of any size can be
/// modelled on any machine.
using vaddr_t = std::uint64_t;

/// Simulated physical address.
using paddr_t = std::uint64_t;

/// Physical frame number (physical address >> 12).
using pfn_t = std::uint64_t;

/// Virtual page number (virtual address >> page shift of the mapping).
using vpn_t = std::uint64_t;

/// Simulated processor cycles. All reported "time" is cycles / clock_hz.
using cycles_t = std::uint64_t;

/// Event counts (TLB misses, cache misses, ...).
using count_t = std::uint64_t;

inline constexpr std::size_t kSmallPageShift = 12;           // 4 KB
inline constexpr std::size_t kLargePageShift = 21;           // 2 MB
inline constexpr std::size_t kHugePageShift1G = 30;          // 1 GiB
inline constexpr std::size_t kSmallPageSize = std::size_t{1} << kSmallPageShift;
inline constexpr std::size_t kLargePageSize = std::size_t{1} << kLargePageShift;
inline constexpr std::size_t kHugePageSize1G = std::size_t{1} << kHugePageShift1G;

inline constexpr std::size_t KiB(std::size_t n) { return n << 10; }
inline constexpr std::size_t MiB(std::size_t n) { return n << 20; }
inline constexpr std::size_t GiB(std::size_t n) { return n << 30; }

/// Page size class of a mapping or a TLB entry. Memory *layouts* (mapped
/// regions, recorded traces) only ever use the paper's two kinds; huge1g
/// exists as a translation/TLB entry kind produced by the paging-policy
/// overlay (paging::PagingModel) and by 1 GiB TLB banks on modern
/// geometries.
enum class PageKind : std::uint8_t {
  small4k = 0,  ///< traditional 4 KB page
  large2m = 1,  ///< x86-64 2 MB "huge"/"super" page
  huge1g = 2,   ///< x86-64 1 GiB page (PUD-level leaf)
};

inline constexpr std::size_t kPageKindCount = 3;

inline constexpr std::size_t page_shift(PageKind k) {
  switch (k) {
    case PageKind::small4k:
      return kSmallPageShift;
    case PageKind::large2m:
      return kLargePageShift;
    case PageKind::huge1g:
      return kHugePageShift1G;
  }
  return kSmallPageShift;
}

inline constexpr std::size_t page_size(PageKind k) {
  return std::size_t{1} << page_shift(k);
}

/// The name table of the layout axis: the page kinds a memory layout can
/// use (mapped regions, recorded traces, --pages=, the wire's pages= and
/// code_pages=). 1 GB pages are a paging policy (huge1g), not a layout.
inline constexpr NameTable<PageKind, 2> kLayoutPageKinds{"page kind",
                                                         {"4KB", "2MB"}};

inline constexpr const char* page_kind_name(PageKind k) {
  return k == PageKind::huge1g ? "1GB" : kLayoutPageKinds.name(k);
}

/// Parses a layout page kind's name ("4KB", "2MB"); nullopt for anything
/// else, "1GB" included.
inline std::optional<PageKind> page_kind_from_name(std::string_view name) {
  return kLayoutPageKinds.parse(name);
}

/// Kind of a memory reference fed to the simulator.
enum class Access : std::uint8_t {
  load = 0,
  store = 1,
  ifetch = 2,
};

}  // namespace lpomp

// Name tables of the sweep axes. Each axis (kernel, class, layout page
// kind, platform, paging policy) keeps one NameTable beside its enum and
// one parser returning std::optional. Every boundary (CLI, wire, a trace's
// metadata at replay) parses through that parser and wraps a miss in its
// own error type with or_unknown(), whose "valid: ..." list comes from the
// table.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lpomp {

/// Splits "a,b" at `sep`, keeping empty tokens so a parser rejects them.
inline std::vector<std::string> split_list(std::string_view text,
                                           char sep = ',') {
  std::vector<std::string> out;
  for (std::size_t start = 0;;) {
    const std::size_t pos = text.find(sep, start);
    out.emplace_back(text.substr(start, pos - start));
    if (pos == std::string_view::npos) return out;
    start = pos + 1;
  }
}

/// name(item) of every item, joined by `sep`.
template <typename Items, typename Name>
std::string join(const Items& items, Name name, std::string_view sep) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += sep;
    out += name(item);
  }
  return out;
}

/// The names of an axis whose values are T(0) .. T(N-1): names[i] names
/// T(i); `noun` is what an error message calls a value.
template <typename T, std::size_t N>
struct NameTable {
  const char* noun;
  std::array<const char*, N> names;

  constexpr const char* name(T v) const {
    return names[static_cast<std::size_t>(v)];
  }
  std::vector<T> all() const {
    std::vector<T> out;
    for (std::size_t i = 0; i < N; ++i) out.push_back(static_cast<T>(i));
    return out;
  }
  std::optional<T> parse(std::string_view text) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (text == names[i]) return static_cast<T>(i);
    }
    return std::nullopt;
  }
  std::string list(std::string_view sep = ", ") const {
    return join(names, [](const char* n) { return n; }, sep);
  }
  /// "unknown kernel 'cg' (valid: BT, CG, ...)".
  std::string unknown(std::string_view text) const {
    return "unknown " + std::string(noun) + " '" + std::string(text) +
           "' (valid: " + list() + ")";
  }
};

/// `parsed`, or an `Error` carrying table.unknown(text).
template <typename Error, typename T, typename Table>
T or_unknown(const std::optional<T>& parsed, const Table& table,
             std::string_view text) {
  if (!parsed) throw Error(table.unknown(text));
  return *parsed;
}

}  // namespace lpomp

// Tiny option parser shared by the bench harnesses and examples:
// "--key=value" / "--flag" command-line arguments with environment-variable
// fallbacks (LPOMP_<KEY>), so `for b in build/bench/*; do $b; done` runs with
// sensible defaults while still being steerable.
//
// Malformed values are rejected, never guessed: the typed getters throw
// OptionError, and a program built on the command-line constructor exits
// with status 2 and the error message when it does not catch one.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/names.hpp"

namespace lpomp {

/// A command-line option or LPOMP_* env value that does not parse.
class OptionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Options {
 public:
  /// `max_positional` is how many bare tokens (a subcommand, a kernel name)
  /// the driver takes; require_known() rejects any beyond it.
  explicit Options(std::size_t max_positional = 0)
      : max_positional_(max_positional) {}

  /// Parses argv and installs a terminate handler that turns an uncaught
  /// OptionError into its message on stderr plus exit status 2 (any other
  /// uncaught exception still prints and aborts).
  Options(int argc, char** argv, std::size_t max_positional = 0)
      : Options(max_positional) {
    for (int i = 1; i < argc; ++i) parse_arg(argv[i]);
    std::set_terminate(exit_on_option_error);
  }

  /// Parses one "--key=value" or "--flag" token; other tokens are kept as
  /// positional arguments.
  void parse_arg(const std::string& arg) {
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      return;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    // A bare flag is "1". body.substr(0, npos) is the whole body.
    std::string value =
        eq == std::string::npos ? std::string(1, '1') : body.substr(eq + 1);
    values_[body.substr(0, eq)] = std::move(value);
  }

  /// Lookup order: command line, then LPOMP_<KEY> env (key uppercased,
  /// '-' -> '_'), then the provided default.
  std::string get(const std::string& key, const std::string& def) const {
    if (auto it = values_.find(key); it != values_.end()) return it->second;
    std::string env_name = "LPOMP_";
    for (char c : key) {
      // std::toupper requires a value representable as unsigned char; a
      // plain (possibly negative) char is UB.
      env_name += (c == '-') ? '_'
                             : static_cast<char>(std::toupper(
                                   static_cast<unsigned char>(c)));
    }
    if (const char* env = std::getenv(env_name.c_str())) return env;
    return def;
  }

  /// Decimal integer; throws OptionError on an empty, out-of-range or
  /// trailing-garbage value ("", "4x", "1e3").
  long get_int(const std::string& key, long def) const {
    const std::string v = get(key, std::to_string(def));
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno == ERANGE) {
      throw OptionError("--" + key + "=" + v + ": expected an integer");
    }
    return n;
  }

  /// Unsigned integer in [min, max], decimal or 0x-prefixed hex; throws
  /// OptionError on an empty, negative, out-of-range or trailing-garbage
  /// value. A count that must be positive (threads, ranks, rounds) passes
  /// min = 1.
  std::uint64_t get_unsigned(const std::string& key, std::uint64_t def,
                             std::uint64_t max = UINT64_MAX,
                             std::uint64_t min = 0) const {
    return to_unsigned(key, get(key, std::to_string(def)), max, min);
  }

  /// get_unsigned() of one token of --key (--threads=1,2,4).
  static std::uint64_t to_unsigned(const std::string& key,
                                   const std::string& v,
                                   std::uint64_t max = UINT64_MAX,
                                   std::uint64_t min = 0) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 0);
    if (v.empty() || v.front() == '-' || *end != '\0' || errno == ERANGE ||
        n > max || n < min) {
      throw OptionError("--" + key + "=" + v + ": expected an unsigned " +
                        "integer from " + std::to_string(min) + " to " +
                        std::to_string(max));
    }
    return n;
  }

  /// --key (default `def`) through an axis parser such as
  /// npb::klass_from_name; a miss throws OptionError listing `table`.
  template <typename T, typename Table>
  T get_name(const std::string& key, const std::string& def,
             std::optional<T> (*parse)(std::string_view),
             const Table& table) const {
    const std::string v = get(key, def);
    return or_unknown<OptionError>(parse(v), table, v);
  }

  /// get_name() for each token of a comma list (--kernels=CG,MG).
  template <typename T, typename Table>
  std::vector<T> get_names(const std::string& key, const std::string& def,
                           std::optional<T> (*parse)(std::string_view),
                           const Table& table) const {
    std::vector<T> out;
    for (const std::string& v : split_list(get(key, def))) {
      out.push_back(or_unknown<OptionError>(parse(v), table, v));
    }
    return out;
  }

  /// Floating-point number; throws OptionError like get_int.
  double get_double(const std::string& key, double def) const {
    const std::string v = get(key, std::to_string(def));
    char* end = nullptr;
    errno = 0;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || errno == ERANGE) {
      throw OptionError("--" + key + "=" + v + ": expected a number");
    }
    return x;
  }

  /// Boolean: 1/true/yes/on or 0/false/no/off (a bare --flag is "1");
  /// throws OptionError on anything else ("maybe", "").
  bool get_flag(const std::string& key, bool def = false) const {
    const std::string v = get(key, def ? "1" : "0");
    for (const char* yes : {"1", "true", "yes", "on"}) {
      if (v == yes) return true;
    }
    for (const char* no : {"0", "false", "no", "off"}) {
      if (v == no) return false;
    }
    throw OptionError("--" + key + "=" + v +
                      ": expected 1/0, true/false, yes/no or on/off");
  }

  /// Throws OptionError on the first command-line key outside `own` and
  /// `groups`, so a typo (--stratgey=live) fails instead of running the
  /// default, and on a bare token beyond the driver's max_positional
  /// (workers=4 without its dashes). LPOMP_* env vars are not checked: the
  /// environment is shared.
  template <typename... Groups>
  void require_known(std::initializer_list<std::string_view> own,
                     const Groups&... groups) const {
    std::vector<std::string_view> known(own);
    (known.insert(known.end(), std::begin(groups), std::end(groups)), ...);
    for (const auto& [key, value] : values_) {
      if (std::find(known.begin(), known.end(), key) != known.end()) continue;
      const auto flag = [](std::string_view k) { return "--" + std::string(k); };
      throw OptionError("unknown option --" + key + " (valid: " +
                        (known.empty() ? "none" : join(known, flag, ", ")) +
                        ")");
    }
    if (positional_.size() > max_positional_) {
      throw OptionError("unexpected argument '" +
                        positional_[max_positional_] +
                        "' (options take the form --key=value)");
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  [[noreturn]] static void exit_on_option_error() {
    try {
      if (const std::exception_ptr e = std::current_exception()) {
        std::rethrow_exception(e);
      }
    } catch (const OptionError& e) {
      std::fflush(stdout);  // keep what the program printed before the error
      std::fprintf(stderr, "%s\n", e.what());
      std::_Exit(2);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "terminate: uncaught exception: %s\n", e.what());
    } catch (...) {
    }
    std::abort();
  }

  std::size_t max_positional_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace lpomp

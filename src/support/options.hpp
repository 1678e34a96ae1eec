// Tiny option parser shared by the bench harnesses and examples:
// "--key=value" / "--flag" command-line arguments with environment-variable
// fallbacks (LPOMP_<KEY>), so `for b in build/bench/*; do $b; done` runs with
// sensible defaults while still being steerable.
//
// Malformed values are rejected, never guessed: the typed getters throw
// OptionError, and a program built on the command-line constructor exits
// with status 2 and the error message when it does not catch one.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace lpomp {

/// A command-line option or LPOMP_* env value that does not parse.
class OptionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Options {
 public:
  Options() = default;

  /// Parses argv and installs a terminate handler that turns an uncaught
  /// OptionError into its message on stderr plus exit status 2 (any other
  /// uncaught exception still prints and aborts).
  Options(int argc, char** argv) {
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
    if (eq == std::string::npos) {
      values_[body] = "1";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
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

  bool get_flag(const std::string& key, bool def = false) const {
    const std::string v = get(key, def ? "1" : "0");
    return v == "1" || v == "true" || v == "yes" || v == "on";
  }

  const std::vector<std::string>& positional() const { return positional_; }
  bool has(const std::string& key) const { return values_.count(key) != 0; }

 private:
  [[noreturn]] static void exit_on_option_error() {
    try {
      if (const std::exception_ptr e = std::current_exception()) {
        std::rethrow_exception(e);
      }
    } catch (const OptionError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::_Exit(2);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "terminate: uncaught exception: %s\n", e.what());
    } catch (...) {
    }
    std::abort();
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace lpomp

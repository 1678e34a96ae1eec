#include "serve/wire.hpp"

#include <charconv>
#include <limits>

#include "exec/json.hpp"
#include "sim/processor_spec.hpp"

namespace lpomp::serve {
namespace {

constexpr const char kRequestMagic[] = "lpomp-req-v1";
constexpr const char kStatsRequest[] = "lpomp-req-v1;stats=1";

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) pos = text.size();
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::uint64_t parse_u64(const std::string& text, const char* field) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw WireError(std::string("bad ") + field + " '" + text + "'");
  }
  return value;
}

npb::Kernel kernel_from(const std::string& name) {
  for (const npb::Kernel k : npb::all_kernels()) {
    if (name == npb::kernel_name(k)) return k;
  }
  throw WireError("unknown kernel '" + name + "'");
}

npb::Klass klass_from(const std::string& name) {
  for (const npb::Klass k : {npb::Klass::S, npb::Klass::W, npb::Klass::A,
                             npb::Klass::B, npb::Klass::R}) {
    if (name == npb::klass_name(k)) return k;
  }
  throw WireError("unknown klass '" + name + "'");
}

PageKind page_kind_from(const std::string& name) {
  if (name == page_kind_name(PageKind::small4k)) return PageKind::small4k;
  if (name == page_kind_name(PageKind::large2m)) return PageKind::large2m;
  throw WireError("unknown page kind '" + name + "'");
}

template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& text, Parse parse,
                          const char* field) {
  if (text.empty()) throw WireError(std::string("empty ") + field + " list");
  std::vector<T> out;
  for (const std::string& token : split(text, ',')) out.push_back(parse(token));
  return out;
}

template <typename T, typename Name>
std::string join(const std::vector<T>& items, Name name) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ',';
    out += name(items[i]);
  }
  return out;
}

}  // namespace

exec::SweepSpec SweepRequest::to_spec() const {
  exec::SweepSpec spec;
  spec.kernels = kernels;
  spec.klass = klass;
  spec.platforms.clear();
  for (const std::string& name : platforms) {
    if (name == "opteron") {
      spec.platforms.push_back(sim::ProcessorSpec::opteron270());
    } else if (name == "xeon") {
      spec.platforms.push_back(sim::ProcessorSpec::xeon_ht());
    } else if (name == "modern") {
      spec.platforms.push_back(sim::ProcessorSpec::modern());
    } else {
      throw WireError("unknown platform '" + name +
                      "' (valid: opteron, xeon, modern)");
    }
  }
  spec.threads = threads;
  spec.page_kinds = page_kinds;
  spec.code_page_kind = code_page_kind;
  spec.paging_policies.clear();
  for (const std::string& name : paging) {
    paging::Policy p;
    if (!paging::policy_from_name(name, p)) {
      throw WireError("unknown paging policy '" + name + "'");
    }
    paging::PolicySpec ps;
    ps.policy = p;
    spec.paging_policies.push_back(ps);
  }
  spec.base_seed = base_seed;
  spec.per_task_seeds = per_task_seeds;
  return spec;
}

std::string encode_request(const SweepRequest& request) {
  std::string out = kRequestMagic;
  out += ";kernels=";
  out += join(request.kernels,
              [](npb::Kernel k) { return npb::kernel_name(k); });
  out += ";klass=";
  out += npb::klass_name(request.klass);
  out += ";platforms=";
  out += join(request.platforms, [](const std::string& p) { return p; });
  out += ";threads=";
  out += join(request.threads, [](unsigned t) { return std::to_string(t); });
  out += ";pages=";
  out += join(request.page_kinds, [](PageKind k) { return page_kind_name(k); });
  out += ";code_pages=";
  out += page_kind_name(request.code_page_kind);
  // Only a non-default axis goes on the wire: policy-free requests stay
  // byte-identical to the pre-paging encoding, so old daemons accept them.
  if (request.paging != std::vector<std::string>{"native"}) {
    out += ";paging=";
    out += join(request.paging, [](const std::string& p) { return p; });
  }
  out += ";seed=";
  out += std::to_string(request.base_seed);
  out += ";per_task_seeds=";
  out += request.per_task_seeds ? '1' : '0';
  out += ";strategy=";
  out += exec::strategy_name(request.strategy);
  return out;
}

SweepRequest decode_request(const std::string& text) {
  const std::vector<std::string> fields = split(text, ';');
  if (fields.empty() || fields[0] != kRequestMagic) {
    throw WireError("not a '" + std::string(kRequestMagic) + "' request");
  }
  SweepRequest request;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const std::string& field = fields[i];
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      throw WireError("malformed field '" + field + "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "kernels") {
      request.kernels = parse_list<npb::Kernel>(value, kernel_from, "kernels");
    } else if (key == "klass") {
      request.klass = klass_from(value);
    } else if (key == "platforms") {
      request.platforms = parse_list<std::string>(
          value, [](const std::string& p) { return p; }, "platforms");
    } else if (key == "threads") {
      request.threads = parse_list<unsigned>(
          value,
          [](const std::string& t) {
            const std::uint64_t n = parse_u64(t, "threads");
            if (n > std::numeric_limits<unsigned>::max()) {
              throw WireError("bad threads '" + t + "'");
            }
            return static_cast<unsigned>(n);
          },
          "threads");
    } else if (key == "pages") {
      request.page_kinds =
          parse_list<PageKind>(value, page_kind_from, "pages");
    } else if (key == "code_pages") {
      request.code_page_kind = page_kind_from(value);
    } else if (key == "paging") {
      request.paging = parse_list<std::string>(
          value, [](const std::string& p) { return p; }, "paging");
    } else if (key == "seed") {
      request.base_seed = parse_u64(value, "seed");
    } else if (key == "per_task_seeds") {
      if (value != "0" && value != "1") {
        throw WireError("bad per_task_seeds '" + value + "'");
      }
      request.per_task_seeds = value == "1";
    } else if (key == "strategy") {
      const std::optional<exec::Strategy> s = exec::strategy_from_name(value);
      if (!s) {
        throw WireError("unknown strategy '" + value + "' (valid: " +
                        exec::kStrategyNames + ")");
      }
      request.strategy = *s;
    } else {
      throw WireError("unknown field '" + key + "'");
    }
  }
  // Validate platform names eagerly so a bad request fails at decode, not
  // mid-sweep.
  (void)request.to_spec();
  return request;
}

std::string encode_response(const exec::SweepResult& result) {
  exec::JsonWriter w;
  w.begin_object();
  w.field("schema", "lpomp-serve-v1");
  w.field("status", "ok");
  w.key("result");
  w.raw(result.to_json(/*include_host=*/true));
  w.key("deterministic");
  w.raw(result.to_json(/*include_host=*/false));
  w.end_object();
  return w.str();
}

std::string encode_error_response(const std::string& message) {
  exec::JsonWriter w;
  w.begin_object();
  w.field("schema", "lpomp-serve-v1");
  w.field("status", "error");
  w.field("message", message);
  w.end_object();
  return w.str();
}

std::string encode_stats_request() { return kStatsRequest; }

bool is_stats_request(const std::string& text) { return text == kStatsRequest; }

std::string encode_stats_response(const std::string& stats_json) {
  exec::JsonWriter w;
  w.begin_object();
  w.field("schema", "lpomp-serve-v1");
  w.field("status", "ok");
  w.key("stats");
  w.raw(stats_json);
  w.end_object();
  return w.str();
}

}  // namespace lpomp::serve

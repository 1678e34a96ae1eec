#include "serve/wire.hpp"

#include <charconv>
#include <climits>
#include <cstdint>

#include "exec/json.hpp"
#include "sim/processor_spec.hpp"
#include "support/names.hpp"

namespace lpomp::serve {
namespace {

constexpr const char kRequestMagic[] = "lpomp-req-v1";
constexpr const char kStatsRequest[] = "lpomp-req-v1;stats=1";

std::uint64_t parse_u64(const std::string& text, const char* field,
                        std::uint64_t max = UINT64_MAX, std::uint64_t min = 0) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value > max ||
      value < min) {
    throw WireError(std::string("bad ") + field + " '" + text + "'");
  }
  return value;
}

template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& text, Parse parse,
                          const char* field) {
  if (text.empty()) throw WireError(std::string("empty ") + field + " list");
  std::vector<T> out;
  for (const std::string& token : split_list(text)) out.push_back(parse(token));
  return out;
}

std::string copy_name(const std::string& name) { return name; }

}  // namespace

exec::SweepSpec SweepRequest::to_spec() const {
  exec::SweepSpec spec;
  spec.kernels = kernels;
  spec.klass = klass;
  spec.platforms.clear();
  for (const std::string& name : platforms) {
    spec.platforms.push_back(or_unknown<WireError>(
        sim::ProcessorSpec::from_key(name), sim::kPlatformKeys, name));
  }
  spec.threads = threads;
  spec.page_kinds = page_kinds;
  spec.code_page_kind = code_page_kind;
  spec.paging_policies.clear();
  for (const std::string& name : paging) {
    spec.paging_policies.push_back({or_unknown<WireError>(
        paging::policy_from_name(name), paging::kPolicies, name), {}});
  }
  spec.base_seed = base_seed;
  spec.per_task_seeds = per_task_seeds;
  return spec;
}

std::string encode_request(const SweepRequest& request) {
  std::string out = kRequestMagic;
  out += ";kernels=";
  out += join(request.kernels, npb::kernel_name, ",");
  out += ";klass=";
  out += npb::klass_name(request.klass);
  out += ";platforms=";
  out += join(request.platforms, copy_name, ",");
  out += ";threads=";
  out += join(request.threads, [](unsigned t) { return std::to_string(t); },
              ",");
  out += ";pages=";
  out += join(request.page_kinds, page_kind_name, ",");
  out += ";code_pages=";
  out += page_kind_name(request.code_page_kind);
  // Only a non-default axis goes on the wire: policy-free requests stay
  // byte-identical to the pre-paging encoding, so old daemons accept them.
  if (request.paging != std::vector<std::string>{"native"}) {
    out += ";paging=";
    out += join(request.paging, copy_name, ",");
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
  const std::vector<std::string> fields = split_list(text, ';');
  if (fields.empty() || fields[0] != kRequestMagic) {
    throw WireError("not a '" + std::string(kRequestMagic) + "' request");
  }
  const auto kernel = [](const std::string& name) {
    return or_unknown<WireError>(npb::kernel_from_name(name), npb::kKernels,
                                 name);
  };
  const auto page_kind = [](const std::string& name) {
    return or_unknown<WireError>(page_kind_from_name(name), kLayoutPageKinds,
                                 name);
  };
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
      request.kernels = parse_list<npb::Kernel>(value, kernel, "kernels");
    } else if (key == "klass") {
      request.klass = or_unknown<WireError>(npb::klass_from_name(value),
                                            npb::kKlasses, value);
    } else if (key == "platforms") {
      request.platforms = parse_list<std::string>(value, copy_name, "platforms");
    } else if (key == "threads") {
      request.threads = parse_list<unsigned>(
          value,
          [](const std::string& t) {
            return static_cast<unsigned>(
                parse_u64(t, "threads", UINT_MAX, /*min=*/1));
          },
          "threads");
    } else if (key == "pages") {
      request.page_kinds = parse_list<PageKind>(value, page_kind, "pages");
    } else if (key == "code_pages") {
      request.code_page_kind = page_kind(value);
    } else if (key == "paging") {
      request.paging = parse_list<std::string>(value, copy_name, "paging");
    } else if (key == "seed") {
      request.base_seed = parse_u64(value, "seed");
    } else if (key == "per_task_seeds") {
      if (value != "0" && value != "1") {
        throw WireError("bad per_task_seeds '" + value + "'");
      }
      request.per_task_seeds = value == "1";
    } else if (key == "strategy") {
      request.strategy = or_unknown<WireError>(
          exec::strategy_from_name(value), exec::kStrategies, value);
    } else {
      throw WireError("unknown field '" + key + "'");
    }
  }
  // Validate platform and paging names eagerly so a bad request fails at
  // decode, not mid-sweep.
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

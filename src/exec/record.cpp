#include "exec/record.hpp"

#include <limits>

#include "exec/json.hpp"

namespace lpomp::exec {

bool RunRecord::same_result(const RunRecord& o) const {
  for (const RecordCounter& c : kRecordCounters) {
    if (this->*c.member != o.*c.member) return false;
  }
  return kernel == o.kernel && klass == o.klass && platform == o.platform &&
         threads == o.threads && page_kind == o.page_kind &&
         code_page_kind == o.code_page_kind && paging == o.paging &&
         seed == o.seed &&
         key_digest == o.key_digest && ok == o.ok && error == o.error &&
         verified == o.verified && checksum == o.checksum &&
         simulated_seconds == o.simulated_seconds;
}

std::string RunRecord::to_json(bool include_host) const {
  JsonWriter w;
  w.begin_object();
  w.field("kernel", kernel);
  w.field("klass", klass);
  w.field("platform", platform);
  w.field("threads", threads);
  w.field("page_kind", page_kind);
  w.field("code_page_kind", code_page_kind);
  w.field("paging", paging);
  w.field("seed", seed);
  w.field("key_digest", key_digest);
  w.field("ok", ok);
  if (!ok) w.field("error", error);
  w.field("verified", verified);
  w.field("checksum", checksum);
  w.field("simulated_seconds", simulated_seconds);
  w.key("counters");
  w.begin_object();
  for (const RecordCounter& c : kRecordCounters) {
    w.field(c.key, this->*c.member);
  }
  w.end_object();
  if (include_host) {
    w.field("cache_hit", cache_hit);
    w.field("store_hit", store_hit);
    w.field("wall_ms", wall_ms);
    w.field("trace_source", trace_source);
  }
  w.end_object();
  return w.str();
}

RunRecord RunRecord::from_json(const std::string& json) {
  return record_from_json_value(json_parse(json));
}

RunRecord record_from_json_value(const JsonValue& doc) {
  RunRecord r;
  r.kernel = doc.at("kernel").as_string();
  r.klass = doc.at("klass").as_string();
  r.platform = doc.at("platform").as_string();
  const std::uint64_t threads = doc.at("threads").as_uint64();
  if (threads > std::numeric_limits<unsigned>::max()) {
    throw JsonError("record threads out of range");
  }
  r.threads = static_cast<unsigned>(threads);
  r.page_kind = doc.at("page_kind").as_string();
  r.code_page_kind = doc.at("code_page_kind").as_string();
  // Lenient: records persisted before the paging subsystem lack the field
  // and are all native runs.
  if (const JsonValue* p = doc.find("paging")) r.paging = p->as_string();
  r.seed = doc.at("seed").as_uint64();
  r.key_digest = doc.at("key_digest").as_string();
  r.ok = doc.at("ok").as_bool();
  if (const JsonValue* e = doc.find("error")) r.error = e->as_string();
  r.verified = doc.at("verified").as_bool();
  r.checksum = doc.at("checksum").as_double();
  r.simulated_seconds = doc.at("simulated_seconds").as_double();
  const JsonValue& c = doc.at("counters");
  for (const RecordCounter& rc : kRecordCounters) {
    if (!rc.optional) {
      r.*rc.member = c.at(rc.key).as_uint64();
    } else if (const JsonValue* v = c.find(rc.key)) {
      r.*rc.member = v->as_uint64();
    }
  }
  if (const JsonValue* v = doc.find("cache_hit")) r.cache_hit = v->as_bool();
  if (const JsonValue* v = doc.find("store_hit")) r.store_hit = v->as_bool();
  if (const JsonValue* v = doc.find("wall_ms")) r.wall_ms = v->as_double();
  if (const JsonValue* v = doc.find("trace_source")) {
    r.trace_source = v->as_string();
  }
  return r;
}

}  // namespace lpomp::exec

#include "exec/record.hpp"

#include <limits>

#include "exec/json.hpp"

namespace lpomp::exec {

bool RunRecord::same_result(const RunRecord& o) const {
  return kernel == o.kernel && klass == o.klass && platform == o.platform &&
         threads == o.threads && page_kind == o.page_kind &&
         code_page_kind == o.code_page_kind && paging == o.paging &&
         seed == o.seed &&
         key_digest == o.key_digest && ok == o.ok && error == o.error &&
         verified == o.verified && checksum == o.checksum &&
         simulated_seconds == o.simulated_seconds && cycles == o.cycles &&
         accesses == o.accesses && l1d_misses == o.l1d_misses &&
         l2_misses == o.l2_misses && dtlb_l1_misses == o.dtlb_l1_misses &&
         dtlb_walks_4k == o.dtlb_walks_4k &&
         dtlb_walks_2m == o.dtlb_walks_2m &&
         dtlb_walks_1g == o.dtlb_walks_1g && itlb_misses == o.itlb_misses &&
         walk_levels == o.walk_levels && pwc_hits == o.pwc_hits &&
         long_stalls == o.long_stalls;
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
  w.field("cycles", cycles);
  w.field("accesses", accesses);
  w.field("l1d_misses", l1d_misses);
  w.field("l2_misses", l2_misses);
  w.field("dtlb_l1_misses", dtlb_l1_misses);
  w.field("dtlb_walks_4k", dtlb_walks_4k);
  w.field("dtlb_walks_2m", dtlb_walks_2m);
  w.field("dtlb_walks_1g", dtlb_walks_1g);
  w.field("itlb_misses", itlb_misses);
  w.field("walk_levels", walk_levels);
  w.field("pwc_hits", pwc_hits);
  w.field("long_stalls", long_stalls);
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
  r.cycles = c.at("cycles").as_uint64();
  r.accesses = c.at("accesses").as_uint64();
  r.l1d_misses = c.at("l1d_misses").as_uint64();
  r.l2_misses = c.at("l2_misses").as_uint64();
  r.dtlb_l1_misses = c.at("dtlb_l1_misses").as_uint64();
  r.dtlb_walks_4k = c.at("dtlb_walks_4k").as_uint64();
  r.dtlb_walks_2m = c.at("dtlb_walks_2m").as_uint64();
  if (const JsonValue* v = c.find("dtlb_walks_1g")) {
    r.dtlb_walks_1g = v->as_uint64();
  }
  r.itlb_misses = c.at("itlb_misses").as_uint64();
  r.walk_levels = c.at("walk_levels").as_uint64();
  if (const JsonValue* v = c.find("pwc_hits")) r.pwc_hits = v->as_uint64();
  r.long_stalls = c.at("long_stalls").as_uint64();
  if (const JsonValue* v = doc.find("cache_hit")) r.cache_hit = v->as_bool();
  if (const JsonValue* v = doc.find("store_hit")) r.store_hit = v->as_bool();
  if (const JsonValue* v = doc.find("wall_ms")) r.wall_ms = v->as_double();
  if (const JsonValue* v = doc.find("trace_source")) {
    r.trace_source = v->as_string();
  }
  return r;
}

}  // namespace lpomp::exec

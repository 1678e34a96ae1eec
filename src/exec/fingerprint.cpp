#include "exec/fingerprint.hpp"

#include <cinttypes>
#include <cstdio>

namespace lpomp::exec {
namespace {

void put(std::string& out, const char* name, std::uint64_t v) {
  out += name;
  out += '=';
  out += std::to_string(v);
  out += ';';
}

void put(std::string& out, const char* name, unsigned v) {
  put(out, name, static_cast<std::uint64_t>(v));
}

void put(std::string& out, const char* name, const std::string& v) {
  out += name;
  out += '=';
  out += v;
  out += ';';
}

// Doubles are serialised via %.17g: round-trip exact, so two CostModels
// differing in any representable way get different keys.
void put(std::string& out, const char* name, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += name;
  out += '=';
  out += buf;
  out += ';';
}

void put_tlb_geometry(std::string& out, const char* name,
                      const tlb::TlbGeometry& g) {
  out += name;
  out += '{';
  put(out, "entries", g.entries);
  put(out, "ways", g.ways);
  out += '}';
}

void put_tlb(std::string& out, const char* name, const tlb::Tlb::Config& c) {
  out += name;
  out += '{';
  put_tlb_geometry(out, "4k", c.small4k);
  put_tlb_geometry(out, "2m", c.large2m);
  // Emitted only when present so every pre-1G config keeps its exact
  // historical key (the FingerprintGolden digest pin).
  if (c.huge1g.present()) put_tlb_geometry(out, "1g", c.huge1g);
  out += '}';
}

void put_cache_geometry(std::string& out, const char* name,
                        const cache::CacheGeometry& g) {
  out += name;
  out += '{';
  put(out, "size", g.size_bytes);
  put(out, "line", g.line_bytes);
  put(out, "ways", g.ways);
  out += '}';
}

void put_spec(std::string& out, const sim::ProcessorSpec& spec) {
  out += "spec{";
  put(out, "name", spec.name);
  put(out, "clock_ghz", spec.clock_ghz);
  put(out, "sockets", spec.sockets);
  put(out, "cores_per_socket", spec.cores_per_socket);
  put(out, "smt_per_core", spec.smt_per_core);
  put_tlb(out, "itlb", spec.itlb);
  put_tlb(out, "l1_dtlb", spec.l1_dtlb);
  if (spec.l2_dtlb) {
    put_tlb(out, "l2_dtlb", *spec.l2_dtlb);
  } else {
    out += "l2_dtlb=none;";
  }
  put_cache_geometry(out, "l1d", spec.l1d);
  put_cache_geometry(out, "l2", spec.l2);
  put(out, "l2_shared", static_cast<std::uint64_t>(spec.l2_shared_per_chip));
  put(out, "smt_flush_on_switch",
      static_cast<std::uint64_t>(spec.smt_flush_on_switch));
  // Conditional for the same reason as the 1g TLB geometry above.
  if (spec.pwc.present()) {
    out += "pwc{";
    put(out, "entries", spec.pwc.entries);
    put(out, "ways", spec.pwc.ways);
    out += '}';
  }
  out += '}';
}

/// Paging-policy key segment — only non-native policies alter the result,
/// so native emits nothing and every historical key is preserved verbatim.
void put_paging(std::string& out, const paging::PolicySpec& p) {
  if (p.is_native()) return;
  out += "paging{";
  put(out, "policy", std::string(p.name()));
  if (p.policy == paging::Policy::thp) {
    put(out, "frag_seed", p.thp.frag_seed);
    put(out, "frag_base", p.thp.frag_base);
    put(out, "frag_growth", p.thp.frag_growth);
    put(out, "compaction_interval", p.thp.compaction_interval);
  }
  out += '}';
}

void put_cost(std::string& out, const sim::CostModel& cost) {
  out += "cost{";
  put(out, "clock_ghz", cost.clock_ghz);
  put(out, "exec_per_access", cost.exec_per_access);
  put(out, "l1_hit_stall", cost.l1_hit_stall);
  put(out, "l2_hit_stall", cost.l2_hit_stall);
  put(out, "mem_stall", cost.mem_stall);
  put(out, "prefetched_stall", cost.prefetched_stall);
  put(out, "dtlb_l2_hit_stall", cost.dtlb_l2_hit_stall);
  put(out, "walk_level_stall", cost.walk_level_stall);
  put(out, "itlb_miss_stall", cost.itlb_miss_stall);
  put(out, "mem_contention_alpha", cost.mem_contention_alpha);
  put(out, "smt_flush", cost.smt_flush);
  put(out, "smt_issue_factor", cost.smt_issue_factor);
  put(out, "barrier_base", cost.barrier_base);
  put(out, "barrier_per_thread", cost.barrier_per_thread);
  out += '}';
}

}  // namespace

std::string cache_key(const RunTask& task) {
  std::string key;
  key.reserve(640);
  key += "lpomp-run-v1{";
  put(key, "kernel", std::string(npb::kernel_name(task.kernel)));
  put(key, "klass", std::string(npb::klass_name(task.klass)));
  put(key, "threads", task.threads);
  put(key, "page_kind", std::string(page_kind_name(task.page_kind)));
  put(key, "code_page_kind", std::string(page_kind_name(task.code_page_kind)));
  put(key, "seed", task.seed);
  put_paging(key, task.paging);
  put_spec(key, task.spec);
  put_cost(key, task.cost);
  key += '}';
  return key;
}

std::uint64_t digest64(const std::string& key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

std::string digest_hex(const std::string& key) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, digest64(key));
  return buf;
}

}  // namespace lpomp::exec

#include "trace/trace.hpp"

namespace lpomp::trace {

std::string trace_key(std::string_view kernel, std::string_view klass,
                      unsigned threads, PageKind page_kind) {
  std::string key;
  key.reserve(kernel.size() + klass.size() + 12);
  key.append(kernel);
  key.push_back('.');
  key.append(klass);
  key.push_back('/');
  key.append(std::to_string(threads));
  key.append("T/");
  key.append(page_kind_name(page_kind));
  return key;
}

std::string Trace::key() const {
  return trace_key(meta.kernel, meta.klass, meta.threads, meta.page_kind);
}

std::size_t Trace::bytes() const {
  std::size_t total = sizeof(Trace) + meta.kernel.size() + meta.klass.size() +
                      meta.platform.size() + boundaries.size();
  for (const std::vector<Event>& s : streams) {
    total += sizeof(s) + s.size() * sizeof(Event);
  }
  return total;
}

}  // namespace lpomp::trace

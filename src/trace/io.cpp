#include "trace/io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace lpomp::trace {

namespace {

constexpr char kMagic[8] = {'L', 'P', 'O', 'M', 'P', 'T', 'R', 'C'};

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void update(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 0x100000001b3ULL;
    }
  }
};

/// Payload writer: every byte goes to the stream and the checksum.
struct SumWriter {
  std::ostream& os;
  Fnv1a fnv;

  void bytes(const char* data, std::size_t n) {
    os.write(data, static_cast<std::streamsize>(n));
    fnv.update(data, n);
  }
  void u8(std::uint8_t v) { bytes(reinterpret_cast<const char*>(&v), 1); }
  void varint(std::uint64_t v) {
    std::string buf;
    put_varint(buf, v);
    bytes(buf.data(), buf.size());
  }
  void str(const std::string& s) {
    varint(s.size());
    bytes(s.data(), s.size());
  }
};

/// Payload reader: mirrors SumWriter; throws TraceError on short reads.
struct SumReader {
  std::istream& is;
  Fnv1a fnv;

  void bytes(char* data, std::size_t n) {
    is.read(data, static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(is.gcount()) != n) {
      throw TraceError("trace file: truncated");
    }
    fnv.update(data, n);
  }
  std::uint8_t u8() {
    char c;
    bytes(&c, 1);
    return static_cast<std::uint8_t>(c);
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (true) {
      const std::uint8_t b = u8();
      if (shift == 63 && b > 1) throw TraceError("trace file: bad varint");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
      if (shift > 63) throw TraceError("trace file: bad varint");
    }
  }
  std::string str(std::size_t max_len) {
    const std::uint64_t len = varint();
    if (len > max_len) throw TraceError("trace file: length out of range");
    std::string s;
    // Grow as data actually arrives, so a corrupt length field fails on the
    // short read instead of attempting a huge upfront allocation.
    constexpr std::size_t kChunk = MiB(1);
    std::uint64_t remaining = len;
    while (remaining > 0) {
      const std::size_t take =
          static_cast<std::size_t>(remaining < kChunk ? remaining : kChunk);
      const std::size_t old = s.size();
      s.resize(old + take);
      bytes(s.data() + old, take);
      remaining -= take;
    }
    return s;
  }
};

std::uint64_t double_bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double bits_double(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

void put_u64le(std::ostream& os, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  os.write(buf, 8);
}

PageKind page_kind_from(std::uint8_t v) {
  if (v == 0) return PageKind::small4k;
  if (v == 1) return PageKind::large2m;
  throw TraceError("trace file: invalid page kind");
}

/// A layout page kind's code. 1 GB pages are a paging policy, never the
/// layout a trace was recorded over, so writing one is refused.
std::uint8_t page_kind_code(PageKind k) {
  if (k == PageKind::huge1g) {
    throw TraceError("trace file: 1GB is a paging policy, not a layout");
  }
  return static_cast<std::uint8_t>(k);
}

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  os.write(kMagic, sizeof(kMagic));
  char ver[4];
  for (int i = 0; i < 4; ++i) {
    ver[i] = static_cast<char>(kTraceFormatVersion >> (8 * i));
  }
  os.write(ver, 4);

  SumWriter w{os, Fnv1a{}};
  w.str(trace.meta.kernel);
  w.str(trace.meta.klass);
  w.varint(trace.meta.threads);
  w.u8(page_kind_code(trace.meta.page_kind));
  w.u8(page_kind_code(trace.meta.code_page_kind));
  w.varint(trace.meta.seed);
  w.str(trace.meta.platform);
  w.u8(trace.meta.verified ? 1 : 0);
  w.varint(double_bits(trace.meta.checksum));
  w.varint(trace.meta.accesses);

  w.varint(trace.boundaries.size());
  for (const sim::BoundaryKind b : trace.boundaries) {
    w.u8(static_cast<std::uint8_t>(b));
  }
  w.varint(trace.streams.size());
  for (const std::string& s : trace.streams) w.str(s);

  put_u64le(os, w.fnv.h);
  if (!os) throw TraceError("trace file: write failed");
}

Trace read_trace(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (static_cast<std::size_t>(is.gcount()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw TraceError("trace file: bad magic");
  }
  char ver[4];
  is.read(ver, 4);
  if (is.gcount() != 4) throw TraceError("trace file: truncated");
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(static_cast<unsigned char>(ver[i]))
               << (8 * i);
  }
  if (version != kTraceFormatVersion) {
    throw TraceError("trace file: unsupported version " +
                     std::to_string(version));
  }

  SumReader r{is, Fnv1a{}};
  Trace trace;
  trace.meta.kernel = r.str(64);
  trace.meta.klass = r.str(64);
  const std::uint64_t threads = r.varint();
  if (threads == 0 || threads > 4096) {
    throw TraceError("trace file: implausible thread count");
  }
  trace.meta.threads = static_cast<unsigned>(threads);
  trace.meta.page_kind = page_kind_from(r.u8());
  trace.meta.code_page_kind = page_kind_from(r.u8());
  trace.meta.seed = r.varint();
  trace.meta.platform = r.str(256);
  trace.meta.verified = r.u8() != 0;
  trace.meta.checksum = bits_double(r.varint());
  trace.meta.accesses = r.varint();

  const std::uint64_t n_boundaries = r.varint();
  trace.boundaries.reserve(
      static_cast<std::size_t>(n_boundaries < MiB(64) ? n_boundaries : 0));
  for (std::uint64_t i = 0; i < n_boundaries; ++i) {
    const std::uint8_t b = r.u8();
    if (b > 2) throw TraceError("trace file: invalid boundary kind");
    trace.boundaries.push_back(static_cast<sim::BoundaryKind>(b));
  }
  const std::uint64_t n_streams = r.varint();
  if (n_streams != trace.meta.threads) {
    throw TraceError("trace file: stream count mismatch");
  }
  for (std::uint64_t i = 0; i < n_streams; ++i) {
    trace.streams.push_back(r.str(~std::uint64_t{0}));
  }

  char sumbuf[8];
  is.read(sumbuf, 8);
  if (is.gcount() != 8) throw TraceError("trace file: truncated checksum");
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(static_cast<unsigned char>(sumbuf[i]))
              << (8 * i);
  }
  if (stored != r.fnv.h) throw TraceError("trace file: checksum mismatch");

  if (is.peek() != std::char_traits<char>::eof()) {
    throw TraceError("trace file: trailing bytes");
  }
  return trace;
}

void save_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw TraceError("trace file: cannot open '" + path + "'");
  write_trace(os, trace);
  os.flush();
  if (!os) throw TraceError("trace file: write failed for '" + path + "'");
}

Trace load_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw TraceError("trace file: cannot open '" + path + "'");
  return read_trace(is);
}

}  // namespace lpomp::trace

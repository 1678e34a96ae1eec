// Property and robustness tests for the trace codec and file container:
// arbitrary event streams must round-trip exactly, realistic streams must
// compress hard, and corrupt/truncated inputs must be rejected with
// TraceError (never UB or a crash).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "npb/npb.hpp"
#include "support/rng.hpp"
#include "trace/codec.hpp"
#include "trace/io.hpp"
#include "trace/recorder.hpp"
#include "trace/trace.hpp"

namespace lpomp::trace {
namespace {

/// A stream item as fed to the encoder: an event or a segment marker.
struct RefItem {
  bool is_segment = false;
  Event event;
};

std::string encode(const std::vector<RefItem>& items) {
  ThreadEncoder enc;
  for (const RefItem& item : items) {
    if (item.is_segment) {
      enc.segment();
      continue;
    }
    switch (item.event.kind) {
      case Event::Kind::touch:
        enc.touch(item.event.addr, item.event.page, item.event.access);
        break;
      case Event::Kind::run:
        enc.touch_run(item.event.addr, item.event.arg, item.event.page,
                      item.event.access);
        break;
      case Event::Kind::compute:
        enc.compute(item.event.arg);
        break;
      case Event::Kind::strided:
        enc.touch_strided(item.event.addr, item.event.arg, item.event.stride,
                          item.event.page, item.event.access);
        break;
    }
  }
  enc.finish();
  return enc.bytes();
}

/// The canonical wire framing of an event: the encoder rewrites stride-8
/// strided batches to RUN and one-element batches to TOUCH before anything
/// reaches the wire, so decoded streams report the canonical form. The
/// mapping is access-preserving — the simulator treats both framings
/// identically — and it is what makes a replay's re-record byte-identical.
Event canonical(Event e) {
  if (e.kind == Event::Kind::strided && e.stride == 8) {
    e.kind = Event::Kind::run;
  }
  if ((e.kind == Event::Kind::run || e.kind == Event::Kind::strided) &&
      e.arg == 1) {
    return Event::touch_ev(e.addr, e.page, e.access);
  }
  return e;
}

void expect_roundtrip(const std::vector<RefItem>& items) {
  const std::string bytes = encode(items);
  ThreadDecoder dec(bytes);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ThreadDecoder::Item got = dec.next();
    if (items[i].is_segment) {
      ASSERT_EQ(got.kind, ThreadDecoder::ItemKind::segment) << "item " << i;
    } else {
      ASSERT_EQ(got.kind, ThreadDecoder::ItemKind::event) << "item " << i;
      ASSERT_EQ(got.event, canonical(items[i].event)) << "item " << i;
    }
  }
  EXPECT_EQ(dec.next().kind, ThreadDecoder::ItemKind::end);
}

TEST(TraceCodec, VarintRoundTrip) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL,
                          16384ULL, 0xdeadbeefULL, ~0ULL}) {
    std::string buf;
    put_varint(buf, v);
    std::size_t pos = 0;
    EXPECT_EQ(get_varint(buf, &pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(TraceCodec, ZigzagRoundTrip) {
  for (std::int64_t v : {0LL, 1LL, -1LL, 4096LL, -4096LL,
                         (1LL << 46), -(1LL << 46)}) {
    EXPECT_EQ(unzigzag(zigzag(v)), v);
  }
}

TEST(TraceCodec, EmptyStream) {
  ThreadEncoder enc;
  enc.finish();
  ThreadDecoder dec(enc.bytes());
  EXPECT_EQ(dec.next().kind, ThreadDecoder::ItemKind::end);
  EXPECT_THROW(dec.next(), TraceError);
}

TEST(TraceCodec, MixedEventsRoundTrip) {
  std::vector<RefItem> items;
  items.push_back({false, Event::touch_ev(0x10000000, PageKind::small4k,
                                          Access::load)});
  items.push_back({false, Event::touch_ev(0x10000008, PageKind::small4k,
                                          Access::store)});
  items.push_back({false, Event::compute_ev(12345)});
  items.push_back({false, Event::run_ev(0x80000000, 1000, PageKind::large2m,
                                        Access::load)});
  items.push_back({true, Event{}});
  items.push_back({false, Event::touch_ev(0x10000000, PageKind::small4k,
                                          Access::ifetch)});
  items.push_back({true, Event{}});
  expect_roundtrip(items);
}

/// Random mixture of sequential runs, strided scans, random gathers,
/// computes and segment markers — the adversarial input for the encoder's
/// head/repeat heuristics.
std::vector<RefItem> random_stream(std::uint64_t seed) {
  Rng rng(seed * 0x1234567);
  std::vector<RefItem> items;
  // A few "arrays" far apart, like a real pool layout.
  const vaddr_t bases[] = {0x10000000, 0x10400000, 0x13000000, 0x80000000};
  while (items.size() < 50000) {
    const unsigned choice = static_cast<unsigned>(rng.next_below(10));
    const vaddr_t base = bases[rng.next_below(4)];
    const PageKind kind =
        base >= 0x80000000 ? PageKind::large2m : PageKind::small4k;
    const Access access =
        rng.next_below(3) == 0 ? Access::store : Access::load;
    if (choice < 4) {
      // Sequential burst.
      vaddr_t a = base + rng.next_below(1 << 20) * 8;
      const std::size_t n = 1 + rng.next_below(64);
      for (std::size_t i = 0; i < n; ++i, a += 8) {
        items.push_back({false, Event::touch_ev(a, kind, access)});
      }
    } else if (choice < 6) {
      // Strided scan.
      vaddr_t a = base + rng.next_below(1 << 16) * 8;
      const std::uint64_t stride = 8 * (1 + rng.next_below(4096));
      const std::size_t n = 1 + rng.next_below(32);
      for (std::size_t i = 0; i < n; ++i, a += stride) {
        items.push_back({false, Event::touch_ev(a, kind, access)});
      }
    } else if (choice < 8) {
      // Random gather.
      const std::size_t n = 1 + rng.next_below(32);
      for (std::size_t i = 0; i < n; ++i) {
        items.push_back(
            {false, Event::touch_ev(base + rng.next_below(1 << 22) * 8,
                                    kind, access)});
      }
    } else if (choice == 8) {
      if (rng.next_below(2) == 0) {
        items.push_back(
            {false, Event::run_ev(base + rng.next_below(1 << 20) * 8,
                                  1 + rng.next_below(5000), kind, access)});
      } else {
        // Strided run record: forward, backward, or zero byte strides
        // (never 8 — the encoder canonicalises that to a RUN).
        static constexpr std::int64_t kStrides[] = {-4096, -64, -16, 0,
                                                    16,    64,  520, 4096};
        items.push_back(
            {false,
             Event::strided_ev(base + rng.next_below(1 << 20) * 8,
                               rng.next_below(300), kStrides[rng.next_below(8)],
                               kind, access)});
      }
    } else {
      items.push_back({false, Event::compute_ev(rng.next_below(1 << 30))});
      if (rng.next_below(50) == 0) items.push_back({true, Event{}});
    }
  }
  return items;
}

// The property test: whatever the encoder's head/repeat heuristics do
// internally, the decoded stream must be the input, exactly.
TEST(TraceCodec, RandomStreamsRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_roundtrip(random_stream(seed));
  }
}

TEST(TraceCodec, PeriodicPatternsCompress) {
  // A period-3 stencil-like pattern over 30k touches must collapse to well
  // under a byte per access.
  std::vector<RefItem> items;
  vaddr_t a = 0x10000000;
  for (int i = 0; i < 10000; ++i, a += 8) {
    items.push_back({false, Event::touch_ev(a, PageKind::small4k,
                                            Access::load)});
    items.push_back({false, Event::touch_ev(a + 0x20000, PageKind::small4k,
                                            Access::load)});
    items.push_back({false, Event::touch_ev(a + 0x40000, PageKind::small4k,
                                            Access::store)});
  }
  const std::string bytes = encode(items);
  EXPECT_LT(bytes.size(), items.size() / 10);
  expect_roundtrip(items);
}

TEST(TraceCodec, TruncatedStreamThrows) {
  std::vector<RefItem> items;
  for (int i = 0; i < 100; ++i) {
    items.push_back({false, Event::touch_ev(0x10000000 + i * 8192,
                                            PageKind::small4k,
                                            Access::load)});
  }
  const std::string bytes = encode(items);
  // Every proper prefix must either throw or end the stream early — and a
  // prefix that cuts the END marker must throw.
  const std::string cut = bytes.substr(0, bytes.size() - 1);
  ThreadDecoder dec(cut);
  EXPECT_THROW(
      {
        while (true) {
          if (dec.next().kind == ThreadDecoder::ItemKind::end) break;
        }
      },
      TraceError);
}

TEST(TraceCodec, StridedEventsRoundTrip) {
  std::vector<RefItem> items;
  const vaddr_t base = 0x10000000;
  // Forward, backward, zero, sub-line, page-striding, and degenerate counts.
  for (std::int64_t stride : {-8192LL, -520LL, -16LL, 0LL, 16LL, 72LL,
                              4096LL, 1LL << 30}) {
    for (std::uint64_t n : {0ULL, 1ULL, 2ULL, 63ULL, 1000ULL}) {
      items.push_back({false, Event::strided_ev(base + 0x100000, n, stride,
                                                PageKind::small4k,
                                                Access::load)});
      items.push_back({false, Event::strided_ev(base, n, stride,
                                                PageKind::large2m,
                                                Access::store)});
    }
  }
  expect_roundtrip(items);
}

TEST(TraceCodec, ZeroLengthRunsRoundTrip) {
  // n = 0 runs are legal records (a loop whose trip count collapsed to
  // nothing); they must round-trip and must not corrupt head prediction.
  std::vector<RefItem> items;
  for (int i = 0; i < 100; ++i) {
    items.push_back({false, Event::run_ev(0x10000000 + i * 4096, 0,
                                          PageKind::small4k, Access::load)});
    items.push_back({false, Event::run_ev(0x10000000 + i * 4096, 5,
                                          PageKind::small4k, Access::load)});
    items.push_back({false, Event::strided_ev(0x10002000 + i * 4096, 0, -64,
                                              PageKind::small4k,
                                              Access::store)});
  }
  expect_roundtrip(items);
}

// A stream whose period is exactly kRing (64, the maximum the encoder's
// ring can discover): 64 distinct touch symbols repeating with a constant
// per-period advance must collapse into one REPEAT record and round-trip.
TEST(TraceCodec, MaxPeriodRleRoundTrip) {
  std::vector<RefItem> items;
  constexpr int kPeriod = 64;
  constexpr int kReps = 200;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int j = 0; j < kPeriod; ++j) {
      // Distinct intra-period deltas (triangular offsets) so no shorter
      // period divides the pattern; each period advances by 8 bytes.
      const vaddr_t addr = 0x10000000 +
                           static_cast<vaddr_t>(j * (j + 1) / 2) * 8 +
                           static_cast<vaddr_t>(rep) * 8;
      items.push_back({false, Event::touch_ev(addr, PageKind::small4k,
                                              Access::load)});
    }
  }
  const std::string bytes = encode(items);
  // 12800 touches with a discoverable period must compress far below a
  // byte per access.
  EXPECT_LT(bytes.size(), items.size() / 8);
  expect_roundtrip(items);
}

// More concurrently live address sequences than the encoder has heads (8):
// every event evicts a head (all bases are > 1 MiB apart, the far-head
// threshold), which is the worst case for delta prediction. Must still
// round-trip exactly.
TEST(TraceCodec, HeadEvictionChurnRoundTrip) {
  std::vector<RefItem> items;
  constexpr int kSequences = 13;  // > kHeads == 8
  vaddr_t cursor[kSequences];
  for (int s = 0; s < kSequences; ++s) {
    cursor[s] = 0x10000000 + static_cast<vaddr_t>(s) * MiB(2);
  }
  for (int i = 0; i < 5000; ++i) {
    const int s = i % kSequences;
    items.push_back({false, Event::touch_ev(cursor[s], PageKind::small4k,
                                            Access::load)});
    cursor[s] += 8;
  }
  expect_roundtrip(items);
}

// stride == 8 is canonicalised to RUN framing at the encoder entry point:
// byte-identical output, and the decoded stream reports run events.
TEST(TraceCodec, StrideEightCanonicalisedToRun) {
  ThreadEncoder as_strided;
  ThreadEncoder as_run;
  for (int i = 0; i < 50; ++i) {
    const vaddr_t addr = 0x10000000 + static_cast<vaddr_t>(i) * 4096;
    as_strided.touch_strided(addr, 17, 8, PageKind::small4k, Access::load);
    as_run.touch_run(addr, 17, PageKind::small4k, Access::load);
  }
  as_strided.finish();
  as_run.finish();
  ASSERT_EQ(as_strided.bytes(), as_run.bytes());

  ThreadDecoder dec(as_run.bytes());
  for (int i = 0; i < 50; ++i) {
    const ThreadDecoder::Item item = dec.next();
    ASSERT_EQ(item.kind, ThreadDecoder::ItemKind::event);
    EXPECT_EQ(item.event.kind, Event::Kind::run);
    EXPECT_EQ(item.event.stride, 8);
  }
  EXPECT_EQ(dec.next().kind, ThreadDecoder::ItemKind::end);
}

// n == 1 batches are canonicalised to TOUCH framing regardless of stride:
// byte-identical to encoding the touch directly, and the decoded stream
// reports touch events. Without this a replayed trace could not re-record
// byte-identically — a one-element slot is indistinguishable from a touch.
TEST(TraceCodec, OneElementBatchCanonicalisedToTouch) {
  ThreadEncoder as_batch;
  ThreadEncoder as_touch;
  for (int i = 0; i < 50; ++i) {
    const vaddr_t addr = 0x10000000 + static_cast<vaddr_t>(i) * 4096;
    if (i % 2 == 0) {
      as_batch.touch_run(addr, 1, PageKind::small4k, Access::load);
    } else {
      as_batch.touch_strided(addr, 1, -520, PageKind::small4k, Access::load);
    }
    as_touch.touch(addr, PageKind::small4k, Access::load);
  }
  as_batch.finish();
  as_touch.finish();
  ASSERT_EQ(as_batch.bytes(), as_touch.bytes());

  ThreadDecoder dec(as_touch.bytes());
  for (int i = 0; i < 50; ++i) {
    const ThreadDecoder::Item item = dec.next();
    ASSERT_EQ(item.kind, ThreadDecoder::ItemKind::event);
    EXPECT_EQ(item.event.kind, Event::Kind::touch);
  }
  EXPECT_EQ(dec.next().kind, ThreadDecoder::ItemKind::end);
}

TEST(TraceCodec, TruncatedStridedRunThrows) {
  ThreadEncoder enc;
  enc.touch_strided(0x10000000, 100, 4096, PageKind::small4k, Access::load);
  enc.finish();
  const std::string bytes = enc.bytes();
  // Every proper prefix must throw (STRIDED carries opcode + flags + delta
  // + count + stride; cutting any of them is a truncation, and the missing
  // END marker makes even the full first record unterminated).
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string prefix = bytes.substr(0, cut);  // outlives `dec`
    ThreadDecoder dec(prefix);
    EXPECT_THROW(
        {
          while (dec.next().kind != ThreadDecoder::ItemKind::end) {
          }
        },
        TraceError)
        << "cut at " << cut;
  }
}

TEST(TraceCodec, RepeatBeforeHistoryThrows) {
  // A REPEAT record with no prior symbols is malformed.
  std::string bytes;
  bytes.push_back('\x00');  // REPEAT
  put_varint(bytes, 1);     // period
  put_varint(bytes, 5);     // count
  bytes.push_back('\x02');  // END
  ThreadDecoder dec(bytes);
  EXPECT_THROW(dec.next(), TraceError);
}

// --- file container ---------------------------------------------------------

Trace sample_trace() {
  Trace trace;
  trace.meta.kernel = "CG";
  trace.meta.klass = "S";
  trace.meta.threads = 2;
  trace.meta.page_kind = PageKind::large2m;
  trace.meta.platform = "opteron270";
  trace.meta.code_page_kind = PageKind::small4k;
  trace.meta.seed = 0x5eed;
  trace.meta.verified = true;
  trace.meta.checksum = 3.14159;
  trace.meta.accesses = 123456;
  for (unsigned t = 0; t < 2; ++t) {
    ThreadEncoder enc;
    for (int i = 0; i < 1000; ++i) {
      enc.touch(0x10000000 + (t + 1) * i * 8, PageKind::large2m,
                Access::load);
    }
    enc.segment();
    enc.compute(42);
    enc.segment();
    enc.finish();
    trace.streams.push_back(enc.take_bytes());
  }
  trace.boundaries = {sim::BoundaryKind::begin_parallel,
                      sim::BoundaryKind::end_parallel};
  return trace;
}

TEST(TraceIo, FileRoundTrip) {
  const Trace trace = sample_trace();
  std::stringstream ss;
  write_trace(ss, trace);
  const Trace back = read_trace(ss);
  EXPECT_EQ(back.meta, trace.meta);
  EXPECT_EQ(back.streams, trace.streams);
  EXPECT_EQ(back.boundaries, trace.boundaries);
  EXPECT_EQ(back.key(), "CG.S/2T/2MB");
}

TEST(TraceIo, TruncationRejectedAtEveryLength) {
  std::stringstream ss;
  write_trace(ss, sample_trace());
  const std::string full = ss.str();
  // Cut at a spread of byte offsets including the header, the metadata and
  // the trailing checksum.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, std::size_t{9},
                          std::size_t{20}, full.size() / 2, full.size() - 9,
                          full.size() - 1}) {
    std::stringstream damaged(full.substr(0, cut));
    EXPECT_THROW(read_trace(damaged), TraceError) << "cut at " << cut;
  }
}

TEST(TraceIo, CorruptionRejected) {
  std::stringstream ss;
  write_trace(ss, sample_trace());
  const std::string full = ss.str();

  {  // bad magic
    std::string bad = full;
    bad[0] ^= 0x01;
    std::stringstream is(bad);
    EXPECT_THROW(read_trace(is), TraceError);
  }
  {  // unknown version
    std::string bad = full;
    bad[8] = static_cast<char>(0x7f);
    std::stringstream is(bad);
    EXPECT_THROW(read_trace(is), TraceError);
  }
  {  // payload bit flip → checksum mismatch (or a structural error)
    std::string bad = full;
    bad[full.size() / 2] ^= 0x10;
    std::stringstream is(bad);
    EXPECT_THROW(read_trace(is), TraceError);
  }
  {  // trailing garbage
    std::string bad = full + "x";
    std::stringstream is(bad);
    EXPECT_THROW(read_trace(is), TraceError);
  }
}

// Systematic single-bit corruption: the FNV-1a container checksum (or a
// structural check it backstops) must reject a flip at *every* byte offset
// — stream payloads, metadata, lengths, and the checksum itself — and must
// fail via TraceError, never UB, OOM, or a silent wrong read.
TEST(TraceIo, BitFlipRejectedAtEveryOffset) {
  std::stringstream ss;
  write_trace(ss, sample_trace());
  const std::string full = ss.str();
  for (std::size_t off = 0; off < full.size(); ++off) {
    std::string bad = full;
    bad[off] ^= 0x04;
    std::stringstream is(bad);
    EXPECT_THROW(read_trace(is), TraceError) << "flip at offset " << off;
  }
}

// --- kernel-harvested fuzz corpus -------------------------------------------
// The irregular kernels emit the codec's worst case: singleton-dominated
// streams where stride-RLE degenerates to per-event framing (GUPS random
// indexes, PC dependent chases, GT gathers). The synthetic fuzz above never
// produces this density of TOUCH opcodes with large zigzag deltas, so the
// corpus here is harvested from the kernels' real recorded streams: the
// clean bytes must decode to END, and every sampled truncation or bit flip
// must either decode cleanly or throw TraceError — never crash, hang, or
// run off the buffer (the sanitizer CI job runs this too).

std::vector<std::string> harvest_streams(npb::Kernel kernel,
                                         std::uint64_t* accesses) {
  TraceRecorder recorder(2);
  core::RuntimeConfig cfg;
  cfg.num_threads = 2;
  cfg.page_kind = PageKind::small4k;
  cfg.sim = core::SimConfig{sim::ProcessorSpec::opteron270(),
                            sim::CostModel{}, 0x5eedULL};
  cfg.trace_sink = &recorder;
  const npb::NpbResult r = npb::run_kernel(kernel, npb::Klass::S, cfg);
  EXPECT_TRUE(r.verified) << npb::kernel_name(kernel);
  TraceMeta meta;
  meta.kernel = npb::kernel_name(kernel);
  meta.klass = "S";
  meta.threads = 2;
  meta.page_kind = PageKind::small4k;
  Trace t = recorder.finish(std::move(meta));
  *accesses = t.meta.accesses;
  return std::move(t.streams);
}

void decode_to_end(const std::string& bytes) {
  ThreadDecoder dec(bytes);
  while (dec.next().kind != ThreadDecoder::ItemKind::end) {
  }
}

TEST(TraceCodecFuzz, IrregularKernelStreamsSurviveTruncationAndBitFlips) {
  Rng rng(0xF0221277'5EEDULL);
  for (npb::Kernel kernel :
       {npb::Kernel::GUPS, npb::Kernel::GT, npb::Kernel::PC}) {
    std::uint64_t accesses = 0;
    const std::vector<std::string> streams = harvest_streams(kernel, &accesses);
    ASSERT_EQ(streams.size(), 2u);
    std::uint64_t wire_bytes = 0;
    for (const std::string& s : streams) {
      ASSERT_GT(s.size(), 64u);
      wire_bytes += s.size();
      decode_to_end(s);  // the clean harvest decodes fully

      for (int i = 0; i < 64; ++i) {
        const std::size_t cut = rng.next_below(s.size());
        try {
          decode_to_end(s.substr(0, cut));
        } catch (const TraceError&) {
          // rejected cleanly — the acceptable outcome for a torn stream
        }
      }
      for (int i = 0; i < 256; ++i) {
        std::string bad = s;
        const std::size_t off = rng.next_below(bad.size());
        bad[off] = static_cast<char>(static_cast<std::uint8_t>(bad[off]) ^
                                     (1u << rng.next_below(8)));
        try {
          decode_to_end(bad);
        } catch (const TraceError&) {
        }
      }
    }
    // Near-incompressibility honesty check: regular kernels RLE to well
    // under a byte per access; these streams must not (loose bound so the
    // checksum-scan runs, which do compress, don't trip it).
    EXPECT_GT(wire_bytes, accesses / 2) << npb::kernel_name(kernel);
  }
}

}  // namespace
}  // namespace lpomp::trace

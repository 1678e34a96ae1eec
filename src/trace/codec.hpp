// Compressed per-thread access-stream codec.
//
// One simulated thread's event stream (touches, touch-runs, compute charges,
// segment boundaries) is encoded into a compact byte stream built from three
// ideas:
//
//   * head-relative deltas — the encoder keeps 8 "stream heads" (the last
//     address of up to 8 concurrently advancing access streams) and encodes
//     each touch as a zigzag varint delta against the nearest head, so
//     interleaved arrays (a[k], colidx[k], p[j] in CG's gather loop) each
//     delta against their own stream instead of each other;
//   * stride/period RLE — when the symbol stream repeats with period p
//     (p = 1 is a classic unit-stride run; p = 20 is a stencil kernel's
//     per-point neighbour cycle), the repetition collapses into a single
//     REPEAT(p, n) record;
//   * varint/zigzag coding for all integers.
//
// The decoder is purely mechanical: head choice is encoded explicitly, so
// only the encoder carries heuristics and any policy change stays
// backward-compatible within the format version. It yields one event at a
// time (ThreadDecoder::next); the replay driver passes each through the
// ThreadSim entry point of the same name.
//
// Wire grammar (one byte of opcode/flags, then varint payloads):
//   0x00                REPEAT   varint period (1..64), varint count
//   0x01                SEGMENT  (fork-join boundary marker)
//   0x02                END      (end of this thread's stream)
//   0x03                COMPUTE  varint cycles
//   0x04                RUN      flags byte, zigzag delta, varint n
//   0x05                STRIDED  flags byte, zigzag delta, varint n,
//                                zigzag stride_bytes   (never 8 on the wire —
//                                unit stride is canonicalised to RUN)
//   0x40|head<<3|k<<2|a TOUCH    zigzag delta          (head 0..7, kind, acc)
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/types.hpp"

namespace lpomp::trace {

/// Malformed or truncated trace data. Everything in lpomp::trace that parses
/// bytes throws this (never asserts) so a corrupt stream is a recoverable,
/// testable error.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

/// One decoded stream event, exactly as recorded.
struct Event {
  enum class Kind : std::uint8_t { touch = 0, run = 1, compute = 2,
                                   strided = 3 };

  Kind kind = Kind::touch;
  PageKind page = PageKind::small4k;
  Access access = Access::load;
  vaddr_t addr = 0;        ///< touch/run/strided: element address
  std::uint64_t arg = 0;   ///< run/strided: element count; compute: cycles
  std::int64_t stride = 8; ///< strided: byte advance per element (run: 8)

  bool operator==(const Event&) const = default;

  static Event touch_ev(vaddr_t addr, PageKind page, Access access) {
    return Event{Kind::touch, page, access, addr, 0};
  }
  static Event run_ev(vaddr_t addr, std::uint64_t n, PageKind page,
                      Access access) {
    return Event{Kind::run, page, access, addr, n};
  }
  static Event strided_ev(vaddr_t addr, std::uint64_t n, std::int64_t stride,
                          PageKind page, Access access) {
    return Event{Kind::strided, page, access, addr, n, stride};
  }
  static Event compute_ev(cycles_t cycles) {
    return Event{Kind::compute, PageKind::small4k, Access::load, 0, cycles};
  }
};

// --- varint primitives -----------------------------------------------------

void put_varint(std::string& out, std::uint64_t v);
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^ -static_cast<std::int64_t>(u & 1);
}

/// Reads one varint from `bytes` at `*pos`; advances pos. Throws TraceError
/// on truncation or overlong encoding.
std::uint64_t get_varint(std::string_view bytes, std::size_t* pos);

// --- encoder ----------------------------------------------------------------

class ThreadEncoder {
 public:
  ThreadEncoder() = default;

  // The three event entry points are called once per simulated access (touch
  // can run a hundred million times per kernel), so each first tries an
  // inline "predictive continuation": while a repeat is open, the next
  // symbol is almost always the one a full period back, and confirming that
  // takes a handful of compares — no head scan, no hashing, no encoding.
  void touch(vaddr_t addr, PageKind kind, Access access) {
    if (repeat_count_ > 0 && try_continue_touch(addr, kind, access)) return;
    touch_slow(addr, kind, access);
  }
  void touch_run(vaddr_t addr, std::uint64_t n, PageKind kind,
                 Access access) {
    if (n == 1) {  // canonical framing: a one-element batch is a TOUCH
      touch(addr, kind, access);
      return;
    }
    if (repeat_count_ > 0 && try_continue_run(addr, n, kind, access)) return;
    touch_run_slow(addr, n, kind, access);
  }
  void touch_strided(vaddr_t addr, std::uint64_t n, std::int64_t stride,
                     PageKind kind, Access access) {
    if (stride == sizeof(double)) {  // canonical framing: unit stride is RUN
      touch_run(addr, n, kind, access);
      return;
    }
    if (n == 1) {  // one element makes the stride unobservable: TOUCH
      touch(addr, kind, access);
      return;
    }
    if (repeat_count_ > 0 &&
        try_continue_strided(addr, n, stride, kind, access)) {
      return;
    }
    touch_strided_slow(addr, n, stride, kind, access);
  }
  void compute(cycles_t cycles) {
    if (repeat_count_ > 0) {
      const Symbol& pred = period_buf_[period_cursor_];
      if (pred.tag == 0x03 /* COMPUTE */ && pred.arg == cycles) {
        ++repeat_count_;
        advance_cursor();
        return;
      }
    }
    compute_slow(cycles);
  }

  /// Appends a SEGMENT marker (a fork-join boundary crossed this stream).
  void segment();

  /// Flushes pending state and appends the END marker. The encoder must not
  /// be fed further events afterwards.
  void finish();

  const std::string& bytes() const { return out_; }
  std::string take_bytes() { return std::move(out_); }

  static constexpr unsigned kHeads = 8;
  static constexpr unsigned kRing = 64;  ///< max detectable repeat period
  /// A touch farther than this from every head starts a new stream on the
  /// least-recently-used head instead of disturbing the nearest one.
  static constexpr std::uint64_t kFarThreshold = MiB(1);

 private:
  /// Canonical compressed symbol: `tag` is the wire opcode byte (TOUCH tags
  /// embed head/kind/access), `flags` carries RUN/STRIDED head/kind/access.
  /// `stride` is nonzero only for STRIDED symbols, so every legacy symbol
  /// hashes and compares exactly as before the opcode existed.
  struct Symbol {
    std::uint8_t tag = 0;
    std::uint8_t flags = 0;
    std::int64_t delta = 0;
    std::uint64_t arg = 0;
    std::int64_t stride = 0;
    bool operator==(const Symbol&) const = default;
  };

  unsigned pick_head(vaddr_t addr);
  void touch_slow(vaddr_t addr, PageKind kind, Access access);
  void touch_run_slow(vaddr_t addr, std::uint64_t n, PageKind kind,
                      Access access);
  void touch_strided_slow(vaddr_t addr, std::uint64_t n, std::int64_t stride,
                          PageKind kind, Access access);
  void compute_slow(cycles_t cycles);
  void push(const Symbol& s);
  void push_ring(const Symbol& s, std::uint64_t key);
  void emit(const Symbol& s);
  void flush_repeat();
  const Symbol& ring_at(std::uint64_t index) const {
    return ring_[index % kRing];
  }

  /// Continuation check for an open repeat: does this touch extend the
  /// periodic pattern? While a repeat is open the ring and hash index are
  /// left untouched (reconstructed in one pass when the repeat breaks), so
  /// confirming a prediction is just a few compares against the detached
  /// period buffer plus the head update.
  bool try_continue_touch(vaddr_t addr, PageKind kind, Access access) {
    const Symbol& pred = period_buf_[period_cursor_];
    if ((pred.tag & 0x40) == 0) return false;
    const unsigned kind_access =
        (kind == PageKind::large2m ? 0x4u : 0x0u) |
        static_cast<unsigned>(access);
    if ((pred.tag & 0x7u) != kind_access) return false;
    const unsigned h = (pred.tag >> 3) & 0x7;
    if (addr != static_cast<vaddr_t>(
                    static_cast<std::int64_t>(heads_[h]) + pred.delta)) {
      return false;
    }
    heads_[h] = addr;
    ++repeat_count_;
    advance_cursor();
    return true;
  }

  bool try_continue_run(vaddr_t addr, std::uint64_t n, PageKind kind,
                        Access access) {
    const Symbol& pred = period_buf_[period_cursor_];
    if (pred.tag != 0x04 /* RUN */ || pred.arg != n) return false;
    const unsigned kind_access =
        (kind == PageKind::large2m ? 0x4u : 0x0u) |
        static_cast<unsigned>(access);
    if ((pred.flags & 0x7u) != kind_access) return false;
    const unsigned h = (pred.flags >> 3) & 0x7;
    if (addr != static_cast<vaddr_t>(
                    static_cast<std::int64_t>(heads_[h]) + pred.delta)) {
      return false;
    }
    heads_[h] = addr + (n > 0 ? (n - 1) * sizeof(double) : 0);
    ++repeat_count_;
    advance_cursor();
    return true;
  }

  bool try_continue_strided(vaddr_t addr, std::uint64_t n, std::int64_t stride,
                            PageKind kind, Access access) {
    const Symbol& pred = period_buf_[period_cursor_];
    if (pred.tag != 0x05 /* STRIDED */ || pred.arg != n ||
        pred.stride != stride) {
      return false;
    }
    const unsigned kind_access =
        (kind == PageKind::large2m ? 0x4u : 0x0u) |
        static_cast<unsigned>(access);
    if ((pred.flags & 0x7u) != kind_access) return false;
    const unsigned h = (pred.flags >> 3) & 0x7;
    if (addr != static_cast<vaddr_t>(
                    static_cast<std::int64_t>(heads_[h]) + pred.delta)) {
      return false;
    }
    heads_[h] = addr + static_cast<vaddr_t>(
                           n > 0 ? static_cast<std::int64_t>(n - 1) * stride
                                 : 0);
    ++repeat_count_;
    advance_cursor();
    return true;
  }

  void advance_cursor() {
    if (++period_cursor_ == repeat_period_) period_cursor_ = 0;
  }

  /// Snapshots the last `repeat_period_` ring symbols into the detached
  /// period buffer (called when a repeat opens); predictions then cycle
  /// through the buffer without touching the ring.
  void capture_period();

  /// Re-syncs ring, hash index, ring length and head recency after a repeat
  /// delivered symbols that were never pushed individually.
  void close_repeat_window();

  std::string out_;

  std::array<vaddr_t, kHeads> heads_{};
  std::array<std::uint64_t, kHeads> head_used_{};
  std::uint64_t tick_ = 0;

  std::array<Symbol, kRing> ring_{};
  std::array<std::uint64_t, kRing> ring_keys_{};
  std::uint64_t ring_len_ = 0;

  std::uint64_t repeat_period_ = 0;
  std::uint64_t repeat_count_ = 0;

  // Detached copy of the repeating period (symbols + cached hash keys) while
  // a repeat is open; period_cursor_ points at the next predicted symbol.
  std::array<Symbol, kRing> period_buf_{};
  std::array<std::uint64_t, kRing> period_keys_{};
  std::uint64_t period_cursor_ = 0;

  // Approximate last-position index for period discovery: open-addressed,
  // overwrite-on-collision (a miss only costs compression, never
  // correctness — every candidate is verified against the ring).
  static constexpr std::size_t kHashSlots = 1024;
  struct HashSlot {
    std::uint64_t key = 0;
    std::uint64_t pos = ~std::uint64_t{0};
  };
  std::array<HashSlot, kHashSlots> last_pos_{};

  bool finished_ = false;
};

// --- decoder ----------------------------------------------------------------

class ThreadDecoder {
 public:
  /// `bytes` must outlive the decoder.
  explicit ThreadDecoder(std::string_view bytes) : bytes_(bytes) {}

  enum class ItemKind : std::uint8_t { event, segment, end };
  struct Item {
    ItemKind kind = ItemKind::end;
    Event event;
  };

  /// Next stream item. Returns end exactly once (at the END marker); calling
  /// again afterwards throws. Throws TraceError on malformed input.
  ///
  /// The continuation of an open REPEAT is inline: the per-event price of
  /// the stencil kernels' long repeats is one symbol lookup and a head
  /// update.
  Item next() {
    if (repeat_remaining_ > 0) return Item{ItemKind::event, repeat_step()};
    return next_record();
  }

 private:
  /// A decoded symbol as the ring keeps it: the event without its address,
  /// plus the head-relative terms the address is rebuilt from.
  struct RingSymbol {
    Event::Kind kind = Event::Kind::compute;
    PageKind page = PageKind::small4k;
    Access access = Access::load;
    std::uint8_t head = 0;
    std::int64_t delta = 0;   ///< address minus heads_[head]
    std::uint64_t arg = 0;    ///< Event::arg
    std::int64_t stride = 8;  ///< Event::stride
    vaddr_t span = 0;         ///< last element's offset: the head's advance
  };

  /// Reads one wire record (everything next() does not inline).
  Item next_record();

  /// Validates and decodes one literal symbol, appends it to the ring and
  /// places it.
  Event apply(std::uint8_t tag, std::uint8_t flags, std::int64_t delta,
              std::uint64_t arg, std::int64_t stride);

  /// The event of `s` at the current head; advances the head past it.
  Event place(const RingSymbol& s) {
    vaddr_t addr = 0;
    if (s.kind != Event::Kind::compute) {
      addr = heads_[s.head] + static_cast<vaddr_t>(s.delta);
      heads_[s.head] = addr + s.span;
    }
    return Event{s.kind, s.page, s.access, addr, s.arg, s.stride};
  }

  /// One event of an open REPEAT: the period's next symbol. The ring is
  /// not written while the repeat runs; close_repeat() brings it up to
  /// date afterwards.
  Event repeat_step() {
    --repeat_remaining_;
    const RingSymbol& s = period_[repeat_phase_];
    if (++repeat_phase_ == repeat_period_) repeat_phase_ = 0;
    return place(s);
  }

  /// Leaves the ring as appending each of the repeat's events would have.
  void close_repeat();

  std::string_view bytes_;
  std::size_t pos_ = 0;

  std::array<vaddr_t, ThreadEncoder::kHeads> heads_{};

  std::array<RingSymbol, ThreadEncoder::kRing> ring_{};
  std::uint64_t ring_len_ = 0;

  // The open (or last, until closed) REPEAT: its period's symbols in
  // order, the period, the position within it, the events still to
  // deliver, and its total length (0 once closed).
  std::array<RingSymbol, ThreadEncoder::kRing> period_{};
  std::uint64_t repeat_period_ = 0;
  std::uint64_t repeat_phase_ = 0;
  std::uint64_t repeat_remaining_ = 0;
  std::uint64_t repeat_count_ = 0;

  bool done_ = false;
};

}  // namespace lpomp::trace

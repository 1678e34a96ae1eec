#include "trace/codec.hpp"

#include <cstdlib>

namespace lpomp::trace {

namespace {

// Wire opcodes (see codec.hpp header comment).
constexpr std::uint8_t kOpRepeat = 0x00;
constexpr std::uint8_t kOpSegment = 0x01;
constexpr std::uint8_t kOpEnd = 0x02;
constexpr std::uint8_t kOpCompute = 0x03;
constexpr std::uint8_t kOpRun = 0x04;
constexpr std::uint8_t kOpStrided = 0x05;
constexpr std::uint8_t kOpTouchBit = 0x40;

constexpr std::uint8_t pack_flags(unsigned head, PageKind kind,
                                  Access access) {
  return static_cast<std::uint8_t>((head << 3) |
                                   (kind == PageKind::large2m ? 0x4 : 0x0) |
                                   static_cast<unsigned>(access));
}

constexpr PageKind flags_kind(std::uint8_t flags) {
  return (flags & 0x4) != 0 ? PageKind::large2m : PageKind::small4k;
}

Access flags_access(std::uint8_t flags) {
  switch (flags & 0x3) {
    case 0: return Access::load;
    case 1: return Access::store;
    case 2: return Access::ifetch;
    default: throw TraceError("trace: invalid access code in flags");
  }
}

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finaliser — good avalanche for the period-discovery hash.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(0x80 | (v & 0x7f)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t get_varint(std::string_view bytes, std::size_t* pos) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (true) {
    if (*pos >= bytes.size()) throw TraceError("trace: truncated varint");
    const std::uint8_t b = static_cast<std::uint8_t>(bytes[(*pos)++]);
    if (shift == 63 && b > 1) throw TraceError("trace: varint overflow");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) throw TraceError("trace: varint overflow");
  }
}

// --- ThreadEncoder ----------------------------------------------------------

unsigned ThreadEncoder::pick_head(vaddr_t addr) {
  unsigned best = 0;
  std::uint64_t best_dist = ~std::uint64_t{0};
  for (unsigned h = 0; h < kHeads; ++h) {
    const std::int64_t d =
        static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(heads_[h]);
    const std::uint64_t dist = static_cast<std::uint64_t>(d < 0 ? -d : d);
    if (dist < best_dist) {
      best_dist = dist;
      best = h;
    }
  }
  if (best_dist > kFarThreshold) {
    // This address starts (or resumes) a stream far from everything the
    // heads are tracking: recycle the coldest head rather than yanking an
    // active stream's head megabytes away.
    for (unsigned h = 0; h < kHeads; ++h) {
      if (head_used_[h] < head_used_[best]) best = h;
    }
  }
  head_used_[best] = ++tick_;
  return best;
}

void ThreadEncoder::touch_slow(vaddr_t addr, PageKind kind, Access access) {
  const unsigned h = pick_head(addr);
  const std::int64_t delta =
      static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(heads_[h]);
  heads_[h] = addr;
  Symbol s;
  s.tag = static_cast<std::uint8_t>(kOpTouchBit | pack_flags(h, kind, access));
  s.delta = delta;
  push(s);
}

void ThreadEncoder::touch_run_slow(vaddr_t addr, std::uint64_t n,
                                   PageKind kind, Access access) {
  const unsigned h = pick_head(addr);
  const std::int64_t delta =
      static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(heads_[h]);
  // The decoder advances the head to the run's last element the same way.
  heads_[h] = addr + (n > 0 ? (n - 1) * sizeof(double) : 0);
  Symbol s;
  s.tag = kOpRun;
  s.flags = pack_flags(h, kind, access);
  s.delta = delta;
  s.arg = n;
  push(s);
}

void ThreadEncoder::touch_strided_slow(vaddr_t addr, std::uint64_t n,
                                       std::int64_t stride, PageKind kind,
                                       Access access) {
  const unsigned h = pick_head(addr);
  const std::int64_t delta =
      static_cast<std::int64_t>(addr) - static_cast<std::int64_t>(heads_[h]);
  heads_[h] = addr + static_cast<vaddr_t>(
                         n > 0 ? static_cast<std::int64_t>(n - 1) * stride
                               : 0);
  Symbol s;
  s.tag = kOpStrided;
  s.flags = pack_flags(h, kind, access);
  s.delta = delta;
  s.arg = n;
  s.stride = stride;
  push(s);
}

void ThreadEncoder::compute_slow(cycles_t cycles) {
  Symbol s;
  s.tag = kOpCompute;
  s.arg = cycles;
  push(s);
}

void ThreadEncoder::segment() {
  flush_repeat();
  out_.push_back(static_cast<char>(kOpSegment));
}

void ThreadEncoder::finish() {
  if (finished_) return;
  flush_repeat();
  out_.push_back(static_cast<char>(kOpEnd));
  finished_ = true;
}

void ThreadEncoder::push(const Symbol& s) {
  if (repeat_count_ > 0) {
    if (s == period_buf_[period_cursor_]) {
      ++repeat_count_;
      advance_cursor();
      return;
    }
    flush_repeat();
  }
  // Try to open a repeat: look up the last position of this exact symbol and
  // verify the candidate period against the ring (the hash is approximate —
  // a collision only costs a missed repeat, so one multiply per field plus
  // one finalising mix is plenty).
  const std::uint64_t key =
      mix64((static_cast<std::uint64_t>(s.delta) * 0x9e3779b97f4a7c15ULL) ^
            (s.arg * 0xbf58476d1ce4e5b9ULL) ^
            (static_cast<std::uint64_t>(s.stride) * 0x94d049bb133111ebULL) ^
            (static_cast<std::uint64_t>(s.tag) << 8 | s.flags));
  const HashSlot& slot = last_pos_[key % kHashSlots];
  if (slot.key == key && slot.pos != ~std::uint64_t{0}) {
    const std::uint64_t p = ring_len_ - slot.pos;
    if (p >= 1 && p <= kRing && p <= ring_len_ &&
        s == ring_at(ring_len_ - p)) {
      repeat_period_ = p;
      repeat_count_ = 1;
      push_ring(s, key);
      capture_period();
      return;
    }
  }
  emit(s);
  push_ring(s, key);
}

void ThreadEncoder::capture_period() {
  // The last repeat_period_ ring positions hold exactly one period (the
  // just-pushed symbol is its final element), so the next predicted symbol
  // is the window's first: cursor 0.
  for (std::uint64_t j = 0; j < repeat_period_; ++j) {
    const std::uint64_t idx = (ring_len_ - repeat_period_ + j) % kRing;
    period_buf_[j] = ring_[idx];
    period_keys_[j] = ring_keys_[idx];
  }
  period_cursor_ = 0;
}

void ThreadEncoder::close_repeat_window() {
  // Symbols 2..repeat_count_ of the repeat were confirmed against the period
  // buffer without being pushed; append them to the ring now in one pass.
  // Only the final kRing positions can survive in the window, and position
  // S + i (S = frozen ring length) holds period symbol i mod p.
  const std::uint64_t extra = repeat_count_ - 1;
  if (extra == 0) return;
  const std::uint64_t start = ring_len_;
  const std::uint64_t final_len = start + extra;
  const std::uint64_t from =
      final_len > kRing ? std::max(start, final_len - kRing) : start;
  for (std::uint64_t pos = from; pos < final_len; ++pos) {
    const std::uint64_t j = (pos - start) % repeat_period_;
    const std::uint64_t idx = pos % kRing;
    ring_[idx] = period_buf_[j];
    ring_keys_[idx] = period_keys_[j];
    last_pos_[period_keys_[j] % kHashSlots] =
        HashSlot{period_keys_[j], pos};
  }
  ring_len_ = final_len;
  // Every head driven by the pattern was active through the whole repeat;
  // refresh its recency so far-touch recycling prefers genuinely cold heads.
  for (std::uint64_t j = 0; j < repeat_period_; ++j) {
    const Symbol& s = period_buf_[j];
    if ((s.tag & kOpTouchBit) != 0) {
      head_used_[(s.tag >> 3) & 0x7] = ++tick_;
    } else if (s.tag == kOpRun || s.tag == kOpStrided) {
      head_used_[(s.flags >> 3) & 0x7] = ++tick_;
    }
  }
}

void ThreadEncoder::push_ring(const Symbol& s, std::uint64_t key) {
  const std::uint64_t slot = ring_len_ % kRing;
  ring_[slot] = s;
  ring_keys_[slot] = key;
  last_pos_[key % kHashSlots] = HashSlot{key, ring_len_};
  ++ring_len_;
}

void ThreadEncoder::emit(const Symbol& s) {
  if ((s.tag & kOpTouchBit) != 0) {
    out_.push_back(static_cast<char>(s.tag));
    put_varint(out_, zigzag(s.delta));
  } else if (s.tag == kOpRun) {
    out_.push_back(static_cast<char>(kOpRun));
    out_.push_back(static_cast<char>(s.flags));
    put_varint(out_, zigzag(s.delta));
    put_varint(out_, s.arg);
  } else if (s.tag == kOpStrided) {
    out_.push_back(static_cast<char>(kOpStrided));
    out_.push_back(static_cast<char>(s.flags));
    put_varint(out_, zigzag(s.delta));
    put_varint(out_, s.arg);
    put_varint(out_, zigzag(s.stride));
  } else {  // compute
    out_.push_back(static_cast<char>(kOpCompute));
    put_varint(out_, s.arg);
  }
}

void ThreadEncoder::flush_repeat() {
  if (repeat_count_ == 0) return;
  if (repeat_count_ == 1 && repeat_period_ > 0) {
    // A one-shot "repeat" is shorter as a literal.
    emit(ring_at(ring_len_ - 1));
  } else {
    out_.push_back(static_cast<char>(kOpRepeat));
    put_varint(out_, repeat_period_);
    put_varint(out_, repeat_count_);
  }
  close_repeat_window();
  repeat_period_ = 0;
  repeat_count_ = 0;
}

// --- ThreadDecoder ----------------------------------------------------------

Event ThreadDecoder::apply(std::uint8_t tag, std::uint8_t flags,
                           std::int64_t delta, std::uint64_t arg,
                           std::int64_t stride) {
  RingSymbol s;
  s.arg = arg;
  if (tag != kOpCompute) {
    const std::uint8_t f = (tag & kOpTouchBit) != 0
                               ? static_cast<std::uint8_t>(tag & 0x3f)
                               : flags;
    s.page = flags_kind(f);
    s.access = flags_access(f);
    s.head = static_cast<std::uint8_t>((f >> 3) & 0x7);
    s.delta = delta;
    // Unsigned products: the head arithmetic wraps exactly like the
    // encoder's, and a corrupt count cannot overflow a signed multiply.
    const std::uint64_t last = arg > 0 ? arg - 1 : 0;
    if (tag == kOpRun) {
      s.kind = Event::Kind::run;
      s.span = last * sizeof(double);
    } else if (tag == kOpStrided) {
      s.kind = Event::Kind::strided;
      s.stride = stride;
      s.span = last * static_cast<std::uint64_t>(stride);
    } else {
      s.kind = Event::Kind::touch;
    }
  }
  ring_[ring_len_ % ThreadEncoder::kRing] = s;
  ++ring_len_;
  return place(s);
}

void ThreadDecoder::close_repeat() {
  // Appending the repeat's symbols one by one would leave the period's
  // ((pos - ring_len_) % p)-th symbol at every position pos; only the last
  // kRing positions survive in the ring.
  const std::uint64_t p = repeat_period_;
  const std::uint64_t end = ring_len_ + repeat_count_;
  std::uint64_t pos = repeat_count_ > ThreadEncoder::kRing
                          ? end - ThreadEncoder::kRing
                          : ring_len_;
  for (std::uint64_t j = (pos - ring_len_) % p; pos < end; ++pos) {
    ring_[pos % ThreadEncoder::kRing] = period_[j];
    if (++j == p) j = 0;
  }
  ring_len_ = end;
  repeat_count_ = 0;
}

ThreadDecoder::Item ThreadDecoder::next_record() {
  if (done_) throw TraceError("trace: read past end of stream");
  if (repeat_count_ > 0) close_repeat();
  if (pos_ >= bytes_.size()) {
    throw TraceError("trace: stream truncated (no END marker)");
  }
  const std::uint8_t op = static_cast<std::uint8_t>(bytes_[pos_++]);

  if ((op & kOpTouchBit) != 0) {
    const std::int64_t delta = unzigzag(get_varint(bytes_, &pos_));
    return Item{ItemKind::event, apply(op, 0, delta, 0, 0)};
  }
  switch (op) {
    case kOpRepeat: {
      const std::uint64_t p = get_varint(bytes_, &pos_);
      const std::uint64_t n = get_varint(bytes_, &pos_);
      if (p < 1 || p > ThreadEncoder::kRing || p > ring_len_ || n == 0) {
        throw TraceError("trace: invalid repeat record");
      }
      for (std::uint64_t j = 0; j < p; ++j) {
        period_[j] = ring_[(ring_len_ - p + j) % ThreadEncoder::kRing];
      }
      repeat_period_ = p;
      repeat_phase_ = 0;
      repeat_remaining_ = n;
      repeat_count_ = n;
      return Item{ItemKind::event, repeat_step()};
    }
    case kOpSegment:
      return Item{ItemKind::segment, Event{}};
    case kOpEnd:
      if (pos_ != bytes_.size()) {
        throw TraceError("trace: bytes after END marker");
      }
      done_ = true;
      return Item{ItemKind::end, Event{}};
    case kOpCompute: {
      const std::uint64_t cycles = get_varint(bytes_, &pos_);
      return Item{ItemKind::event, apply(kOpCompute, 0, 0, cycles, 0)};
    }
    case kOpRun: {
      if (pos_ >= bytes_.size()) throw TraceError("trace: truncated run");
      const std::uint8_t flags = static_cast<std::uint8_t>(bytes_[pos_++]);
      const std::int64_t delta = unzigzag(get_varint(bytes_, &pos_));
      const std::uint64_t n = get_varint(bytes_, &pos_);
      return Item{ItemKind::event, apply(kOpRun, flags, delta, n, 8)};
    }
    case kOpStrided: {
      if (pos_ >= bytes_.size()) {
        throw TraceError("trace: truncated strided run");
      }
      const std::uint8_t flags = static_cast<std::uint8_t>(bytes_[pos_++]);
      const std::int64_t delta = unzigzag(get_varint(bytes_, &pos_));
      const std::uint64_t n = get_varint(bytes_, &pos_);
      const std::int64_t stride = unzigzag(get_varint(bytes_, &pos_));
      return Item{ItemKind::event, apply(kOpStrided, flags, delta, n,
                                         stride)};
    }
    default:
      throw TraceError("trace: unknown opcode " + std::to_string(op));
  }
}

}  // namespace lpomp::trace

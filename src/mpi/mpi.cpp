#include "mpi/mpi.hpp"

namespace lpomp::mpi {

namespace {
// Tags for collective traffic, outside the user tag space.
constexpr int kReduceTag = -1;
constexpr int kBcastTag = -2;
// Mailbox payloads: chunk-ready and chunk-ack tokens.
constexpr std::uint8_t kReady = 1;
constexpr std::uint8_t kAck = 2;
}  // namespace

Communicator::Communicator(core::Runtime& rt, std::size_t chunk_doubles,
                           std::size_t slots)
    : rt_(&rt),
      chunk_(chunk_doubles),
      slots_(slots),
      channel_(rt.num_threads()) {
  LPOMP_CHECK_MSG(chunk_ > 0, "chunk must be non-empty");
  LPOMP_CHECK_MSG(slots_ >= 1 && slots_ <= dsm::MsgChannel::kSlotsPerPair / 2,
                  "ring slots must leave mailbox room for acks");
  const std::size_t pairs =
      static_cast<std::size_t>(rt.num_threads()) * rt.num_threads();
  ring_doubles_ = chunk_ * slots_;
  rings_ = rt.alloc_array<double>(pairs * ring_doubles_, "mpi_rings");
  reduce_buf_ = rt.alloc_array<double>(
      static_cast<std::size_t>(rt.num_threads()) * chunk_, "mpi_reduce_buf");
}

void Communicator::send(core::ThreadCtx& ctx, int dest, int tag,
                        const double* data, std::size_t n) {
  const int me = static_cast<int>(ctx.tid());
  LPOMP_CHECK_MSG(dest >= 0 && dest < size() && dest != me, "bad destination");
  auto ring = ctx.view(rings_);
  const std::size_t base = ring_index(me, dest) * ring_doubles_;

  // Header first (eager handshake).
  channel_.send_value(static_cast<unsigned>(me), static_cast<unsigned>(dest),
                      Header{tag, n});

  std::size_t sent = 0;
  std::size_t chunk_no = 0;
  while (sent < n) {
    if (chunk_no >= slots_) {
      // Ring full: wait for the receiver to release the slot we need.
      const auto token = channel_.recv_value<std::uint8_t>(
          static_cast<unsigned>(me), static_cast<unsigned>(dest));
      LPOMP_CHECK(token == kAck);
    }
    const std::size_t len = std::min(chunk_, n - sent);
    const std::size_t slot = (chunk_no % slots_) * chunk_;
    for (std::size_t i = 0; i < len; ++i) {
      ring.store(base + slot + i, data[sent + i]);  // copy #1 (instrumented)
    }
    channel_.send_value(static_cast<unsigned>(me),
                        static_cast<unsigned>(dest), kReady);
    sent += len;
    ++chunk_no;
  }
  // Drain remaining acks so the ring is quiescent for the next message.
  for (std::size_t pending = std::min(chunk_no, slots_); pending > 0;
       --pending) {
    const auto token = channel_.recv_value<std::uint8_t>(
        static_cast<unsigned>(me), static_cast<unsigned>(dest));
    LPOMP_CHECK(token == kAck);
  }
  transferred_.fetch_add(n, std::memory_order_relaxed);
}

void Communicator::recv(core::ThreadCtx& ctx, int src, int tag, double* data,
                        std::size_t n) {
  const int me = static_cast<int>(ctx.tid());
  LPOMP_CHECK_MSG(src >= 0 && src < size() && src != me, "bad source");
  auto ring = ctx.view(rings_);
  const std::size_t base = ring_index(src, me) * ring_doubles_;

  const Header header = channel_.recv_value<Header>(
      static_cast<unsigned>(me), static_cast<unsigned>(src));
  LPOMP_CHECK_MSG(header.tag == tag, "tag mismatch");
  LPOMP_CHECK_MSG(header.total == n, "length mismatch");

  std::size_t got = 0;
  std::size_t chunk_no = 0;
  while (got < n) {
    const auto token = channel_.recv_value<std::uint8_t>(
        static_cast<unsigned>(me), static_cast<unsigned>(src));
    LPOMP_CHECK(token == kReady);
    const std::size_t len = std::min(chunk_, n - got);
    const std::size_t slot = (chunk_no % slots_) * chunk_;
    for (std::size_t i = 0; i < len; ++i) {
      data[got + i] = ring.load(base + slot + i);  // copy #2 (instrumented)
    }
    channel_.send_value(static_cast<unsigned>(me), static_cast<unsigned>(src),
                        kAck);
    got += len;
    ++chunk_no;
  }
}

void Communicator::send(core::ThreadCtx& ctx, int dest, int tag,
                        const core::SharedArray<double>& src,
                        std::size_t offset, std::size_t n) {
  LPOMP_CHECK_MSG(offset + n <= src.size(), "send range out of bounds");
  // Report the application-buffer reads, then reuse the raw-pointer path
  // (which instruments the channel-ring stores).
  auto view = ctx.view(src);
  for (std::size_t i = 0; i < n; i += 8) {
    view.touch_only(offset + i, Access::load);
  }
  view.compute(n - (n + 7) / 8);
  send(ctx, dest, tag, src.raw() + offset, n);
}

void Communicator::recv(core::ThreadCtx& ctx, int src, int tag,
                        core::SharedArray<double>& dst, std::size_t offset,
                        std::size_t n) {
  LPOMP_CHECK_MSG(offset + n <= dst.size(), "recv range out of bounds");
  recv(ctx, src, tag, dst.raw() + offset, n);
  auto view = ctx.view(dst);
  for (std::size_t i = 0; i < n; i += 8) {
    view.touch_only(offset + i, Access::store);
  }
  view.compute(n - (n + 7) / 8);
}

void Communicator::allreduce_sum(core::ThreadCtx& ctx, double* data,
                                 std::size_t n) {
  const int me = static_cast<int>(ctx.tid());
  if (size() == 1) return;

  if (me == 0) {
    // Gather-and-accumulate, chunk by chunk, through per-rank scratch.
    auto scratch = ctx.view(reduce_buf_);
    for (int src = 1; src < size(); ++src) {
      const std::size_t sbase = static_cast<std::size_t>(src) * chunk_;
      const Header header =
          channel_.recv_value<Header>(0, static_cast<unsigned>(src));
      LPOMP_CHECK(header.tag == kReduceTag && header.total == n);
      auto ring = ctx.view(rings_);
      const std::size_t rbase = ring_index(src, 0) * ring_doubles_;
      std::size_t got = 0;
      std::size_t chunk_no = 0;
      while (got < n) {
        const auto token =
            channel_.recv_value<std::uint8_t>(0, static_cast<unsigned>(src));
        LPOMP_CHECK(token == kReady);
        const std::size_t len = std::min(chunk_, n - got);
        const std::size_t slot = (chunk_no % slots_) * chunk_;
        for (std::size_t i = 0; i < len; ++i) {
          scratch.store(sbase + i, ring.load(rbase + slot + i));
          data[got + i] += scratch.load(sbase + i);
        }
        ctx.compute(len);
        channel_.send_value(0u, static_cast<unsigned>(src), kAck);
        got += len;
        ++chunk_no;
      }
    }
  } else {
    send(ctx, 0, kReduceTag, data, n);
  }
  bcast(ctx, 0, data, n);
}

void Communicator::allgather(core::ThreadCtx& ctx, double* data,
                             std::size_t per_rank) {
  for (int r = 0; r < size(); ++r) {
    bcast(ctx, r, data + static_cast<std::size_t>(r) * per_rank, per_rank);
  }
}

void Communicator::bcast(core::ThreadCtx& ctx, int root, double* data,
                         std::size_t n) {
  const int me = static_cast<int>(ctx.tid());
  if (size() == 1) return;
  if (me == root) {
    for (int dest = 0; dest < size(); ++dest) {
      if (dest != root) send(ctx, dest, kBcastTag, data, n);
    }
  } else {
    recv(ctx, root, kBcastTag, data, n);
  }
}

}  // namespace lpomp::mpi

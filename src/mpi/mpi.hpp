// Intra-node message passing on top of the lpomp runtime — the paper's
// §6 future work ("we would also like to evaluate the benefit of large
// pages on the performance of other programming paradigms such as MPI").
//
// Ranks are the threads of a Runtime team. Point-to-point transfers use the
// standard two-copy shared-memory channel of intra-node MPI designs (cf.
// MVAPICH, from the paper's own group): the sender pipelines the payload in
// chunks into a per-pair shared ring buffer carved from the runtime's
// shared pool — so the channel inherits the pool's page size — and the
// receiver copies out. Flow control and headers ride the communicator's own
// dsm::MsgChannel mailboxes. Both copies run through instrumented views, so
// the simulator sees the channel traffic and bench/ablation_mpi can measure
// what 2 MB pages buy large-message transfers.
#pragma once

#include "core/parallel_for.hpp"
#include "core/runtime.hpp"
#include "dsm/msg_channel.hpp"

namespace lpomp::mpi {

class Communicator {
 public:
  /// Builds an MPI world over `rt`'s team: size() == rt.num_threads().
  /// `chunk_doubles` is the pipeline chunk of the shared channel; each
  /// ordered rank pair gets `slots` chunks of ring capacity from the
  /// runtime's shared pool (page size = the pool's page kind).
  explicit Communicator(core::Runtime& rt, std::size_t chunk_doubles = 4096,
                        std::size_t slots = 4);

  int size() const { return static_cast<int>(rt_->num_threads()); }

  /// Blocking standard-mode send of `n` doubles to `dest` with `tag`.
  /// Must be called inside a parallel region by rank ctx.tid().
  void send(core::ThreadCtx& ctx, int dest, int tag, const double* data,
            std::size_t n);

  /// Blocking receive of exactly `n` doubles from `src` with `tag`
  /// (matching is strict: source, tag and length must agree).
  void recv(core::ThreadCtx& ctx, int src, int tag, double* data,
            std::size_t n);

  /// Instrumented-buffer variants: the application payload lives in a
  /// SharedArray, so the source reads / destination writes are simulated
  /// alongside the channel copies (what a real MPI application's heap
  /// traffic looks like).
  void send(core::ThreadCtx& ctx, int dest, int tag,
            const core::SharedArray<double>& src, std::size_t offset,
            std::size_t n);
  void recv(core::ThreadCtx& ctx, int src, int tag,
            core::SharedArray<double>& dst, std::size_t offset,
            std::size_t n);

  /// MPI_Allreduce(MPI_SUM) over `n` doubles, in place. Gather-to-root +
  /// broadcast over the shared channel.
  void allreduce_sum(core::ThreadCtx& ctx, double* data, std::size_t n);

  /// MPI_Bcast from rank `root`.
  void bcast(core::ThreadCtx& ctx, int root, double* data, std::size_t n);

  /// MPI_Allgather over equal segments: rank r owns
  /// data[r*per_rank, (r+1)*per_rank); afterwards every rank holds all
  /// segments. Implemented as a bcast round per rank.
  void allgather(core::ThreadCtx& ctx, double* data, std::size_t per_rank);

  /// MPI_Barrier (delegates to the runtime's team barrier).
  void barrier(core::ThreadCtx& ctx) { ctx.barrier(); }

  std::size_t chunk_doubles() const { return chunk_; }

  /// The flow-control and header mailboxes, one ring per ordered rank pair.
  dsm::MsgChannel& channel() { return channel_; }

  /// Payload doubles moved through the shared channel so far (both copies).
  count_t doubles_transferred() const {
    return transferred_.load(std::memory_order_relaxed);
  }

 private:
  struct Header {
    int tag = 0;
    std::uint64_t total = 0;  ///< message length in doubles
  };

  std::size_t ring_index(int src, int dest) const {
    return static_cast<std::size_t>(src) * rt_->num_threads() +
           static_cast<std::size_t>(dest);
  }

  core::Runtime* rt_;
  std::size_t chunk_;
  std::size_t slots_;
  dsm::MsgChannel channel_;
  // One ring of slots_ × chunk_ doubles per ordered pair, all carved from
  // the runtime's (page-size-controlled) shared pool.
  core::SharedArray<double> rings_;
  std::size_t ring_doubles_ = 0;
  // Scratch for reductions.
  core::SharedArray<double> reduce_buf_;
  std::atomic<count_t> transferred_{0};
};

}  // namespace lpomp::mpi

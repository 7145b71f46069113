// Long-lived codec execution context (§5.1, §5.4).
//
// Production Lepton runs as a daemon: worker threads are spawned once —
// before SECCOMP forbids clone() — and every model-sized buffer is
// allocated once and reused for the life of the process. CodecContext is
// that daemon's state made explicit: it owns a persistent util::ThreadPool
// for segment fan-out plus a pool of per-worker scratch blocks, each
// holding a ProbabilityModel (reset by memset, never reallocated), a
// capacity-reserved arithmetic output buffer, a Huffman row re-encode
// buffer, and the two-row context rings. Repeated encode/decode calls
// through one context perform no model-sized heap allocations after
// warm-up; a test asserts this via the tracked_memory counters.
//
// The free functions encode_jpeg/decode_lepton route through a process-wide
// default context, so casual callers get the reuse for free; servers that
// want isolation (or several pools) construct their own.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "lepton/codec.h"
#include "lepton/run_control.h"
#include "model/block_codec.h"
#include "model/model.h"
#include "util/thread_pool.h"
#include "util/tracked_memory.h"

namespace lepton {

// One worker's reusable working set. Not thread-safe; a scratch block is
// leased to exactly one segment job at a time.
class CodecScratch {
 public:
  CodecScratch() : model_(1) {}

  // The probability model, returned at the 50-50 prior. The first call
  // after construction skips the reset (construction already zeroed it).
  model::ProbabilityModel& fresh_model() {
    if (used_) model_[0].reset();
    used_ = true;
    return model_[0];
  }

  // Per-segment arithmetic output (encode) — cleared by BoolEncoder, grows
  // once to the largest segment seen.
  std::vector<std::uint8_t>& arith_buffer() { return arith_buf_; }

  // Per-row Huffman re-encode output (decode).
  std::vector<std::uint8_t>& row_buffer() { return row_buf_; }

  // Context-row rings for SegmentCodec.
  model::SegmentRings& rings() { return rings_; }

  // Encode-side context-plane scratch (rolling magnitude/pixel rows plus
  // the per-MCU-row bucket plane), re-shaped per segment, grown once.
  model::ContextPlane& plane() { return plane_; }

 private:
  // Allocated through the tracker: the per-worker model copy is what the
  // Figure 3 memory accounting counts (§4.2).
  util::tracked_vector<model::ProbabilityModel> model_;
  bool used_ = false;
  std::vector<std::uint8_t> arith_buf_;
  std::vector<std::uint8_t> row_buf_;
  model::SegmentRings rings_;
  model::ContextPlane plane_;
};

class CodecContext {
 public:
  // `workers` is the pre-spawned thread count (the paper's production
  // daemon uses the §5.4 maximum of 8; the calling thread participates in
  // batches, so `workers` == 0 still works, serially).
  explicit CodecContext(int workers = 8);

  CodecContext(const CodecContext&) = delete;
  CodecContext& operator=(const CodecContext&) = delete;

  util::ThreadPool& pool() { return pool_; }

  // Segment fan-out bound to a session's RunControl: runs fn(i, tripped)
  // for i in [0, n) on the pool (the calling thread participates, as in
  // ThreadPool::parallel_run). `tripped` is the control's state sampled at
  // dispatch — a segment of a cancelled/expired session observes it before
  // doing any work and fails fast as kTimeout, so one tripped session stops
  // scheduling real work without affecting other sessions sharing this
  // context. `rc` may be null (never tripped). A context with zero workers
  // runs the whole batch as a serial loop on the calling thread.
  template <typename Fn>
  void parallel_run(int n, const RunControl* rc, Fn&& fn) {
    pool_.parallel_run(n, [rc, &fn](int i) {
      fn(i, rc != nullptr && rc->tripped());
    });
  }

  // RAII lease of a scratch block; returns it to the context on destruction.
  class ScratchLease {
   public:
    ScratchLease() = default;
    ScratchLease(CodecContext* ctx, std::unique_ptr<CodecScratch> s)
        : ctx_(ctx), s_(std::move(s)) {}
    ScratchLease(ScratchLease&&) = default;
    ScratchLease& operator=(ScratchLease&&) = default;
    ~ScratchLease() {
      if (ctx_ != nullptr && s_ != nullptr) ctx_->release(std::move(s_));
    }
    CodecScratch* operator->() { return s_.get(); }
    CodecScratch& operator*() { return *s_; }

   private:
    CodecContext* ctx_ = nullptr;
    std::unique_ptr<CodecScratch> s_;
  };

  // Hands out a free scratch block, allocating a new one only when every
  // existing block is leased (so the pool converges on the peak segment
  // concurrency and stays there).
  ScratchLease acquire_scratch();

  // How many scratch blocks exist (leased + free); test/bench visibility
  // into the warm-up behaviour.
  std::size_t scratch_blocks() const;

  // Convenience entry points bound to this context.
  Result encode(std::span<const std::uint8_t> jpeg,
                const EncodeOptions& opts = {});
  util::ExitCode decode(std::span<const std::uint8_t> lep, ByteSink& sink,
                        const DecodeOptions& opts = {},
                        DecodeStats* stats = nullptr);
  Result decode(std::span<const std::uint8_t> lep,
                const DecodeOptions& opts = {});

 private:
  void release(std::unique_ptr<CodecScratch> s);

  util::ThreadPool pool_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<CodecScratch>> free_;
  std::size_t total_blocks_ = 0;
};

// The process-wide context behind the free encode_jpeg/decode_lepton
// functions. Created on first use, lives for the process (the daemon
// lifetime of §5.1).
CodecContext& default_context();

}  // namespace lepton

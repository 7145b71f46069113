// Container planning: maps a byte range of the original file onto verbatim
// sections + re-encodable MCU-row segments with Huffman handover words.
//
// This is where the paper's two distribution requirements meet the format:
//  * thread segments within a container (§3.4 "within chunks, parallel
//    decoding"), and
//  * 4-MiB storage chunks that decode with no access to other chunks
//    (§3 "distribution across independent chunks").
//
// A chunk boundary rarely lands on an MCU-row boundary; the bytes between
// the chunk start and the first row boundary inside it are carried verbatim
// as segment "prepend" data (§A.1 "arbitrary data to prepend"), and the
// last segment's output is trimmed to the chunk end.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "lepton/codec.h"
#include "lepton/format.h"
#include "model/block_codec.h"

namespace lepton::core {

struct ContainerPlan {
  bool is_chunk = false;
  std::uint64_t file_total_size = 0;
  std::uint64_t chunk_off = 0;
  std::uint64_t chunk_len = 0;
  std::uint64_t prefix_off = 0;  // range into the JPEG header bytes
  std::uint64_t prefix_len = 0;
  std::vector<std::uint8_t> suffix;
  std::vector<SegmentHeader> segments;
};

// Plans the container for original-file byte range [begin, end).
ContainerPlan plan_byte_range(const jpegfmt::JpegFile& jf,
                              const jpegfmt::ScanDecodeResult& dec,
                              std::uint64_t begin, std::uint64_t end,
                              const EncodeOptions& opts, bool is_chunk);

// Whole file as a single container.
ContainerPlan plan_whole_file(const jpegfmt::JpegFile& jf,
                              const jpegfmt::ScanDecodeResult& dec,
                              const EncodeOptions& opts);

// Encodes one planned container on `ctx`'s pool and scratch (implemented
// in codec.cpp). Segment workers poll `opts.run` at MCU-row granularity;
// a trip throws jpegfmt::ParseError(kTimeout).
std::vector<std::uint8_t> encode_container(
    const jpegfmt::JpegFile& jf, const jpegfmt::ScanDecodeResult& dec,
    const ContainerPlan& plan, const EncodeOptions& opts,
    model::SectionTally* tally, CodecContext& ctx);

// ---- decode driver pieces ---------------------------------------------------
//
// DecodeSession (session.h) is the one decode driver; every whole-buffer
// decode (decode_lepton, ChunkCodec) feeds a session. It is built from the
// pieces below, so there is exactly one segment-decode code path regardless
// of how the container bytes arrived.

// In-order streaming assembler for parallel segment output (§3.4: separate
// threads each write their own segment, which is concatenated and sent).
// Completion is tracked with one flag per segment — any segment count the
// format layer admits (kMaxSegments) works; the flags are only touched
// under the mutex.
class OrderedEmitter {
 public:
  OrderedEmitter(ByteSink& sink, std::size_t n)
      : sink_(sink), pending_(n), completed_(n, 0) {}

  // Sizes the buffer of a segment that is not live yet, so its buffered
  // output grows without reallocating.
  void reserve(std::size_t seg, std::size_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    if (seg != live_) pending_[seg].reserve(n);
  }

  void submit(std::size_t seg, std::span<const std::uint8_t> bytes) {
    std::lock_guard<std::mutex> lk(mu_);
    if (seg == live_) {
      sink_.append(bytes);
    } else {
      pending_[seg].insert(pending_[seg].end(), bytes.begin(), bytes.end());
    }
  }

  void complete(std::size_t seg) {
    std::lock_guard<std::mutex> lk(mu_);
    completed_[seg] = 1;
    while (live_ < pending_.size() && completed_[live_] != 0) {
      ++live_;
      if (live_ < pending_.size() && !pending_[live_].empty()) {
        sink_.append({pending_[live_].data(), pending_[live_].size()});
        pending_[live_].clear();
      }
    }
  }

 private:
  ByteSink& sink_;
  std::mutex mu_;
  std::size_t live_ = 0;
  std::vector<std::vector<std::uint8_t>> pending_;
  std::vector<std::uint8_t> completed_;  // one flag per segment
};

// Payload-consumption facts accumulated across a container's segments
// (aggregated into lepton::DecodeStats at the end of a decode).
struct DecodeRunFlags {
  std::atomic<bool> overran{false};
  std::atomic<bool> leftover{false};
  std::atomic<std::uint64_t> payload_bytes{0};
  std::atomic<std::uint64_t> payload_consumed{0};

  void fill(DecodeStats* stats) const {
    if (stats == nullptr) return;
    stats->payload_overrun = overran.load();
    stats->payload_exhausted = !overran.load() && !leftover.load();
    stats->payload_bytes = payload_bytes.load();
    stats->payload_consumed = payload_consumed.load();
  }
};

// Parses the container's embedded JPEG header, validates the segment row
// ranges against it, and enforces the §6.2 ">24 MiB mem decode" budget.
// Throws jpegfmt::ParseError on violation. Runs before any output byte is
// emitted — a session fails a hostile header the moment it arrives, before
// the arithmetic payload has even been fetched.
jpegfmt::JpegFile validate_container_decode(const ContainerHeader& h);

// Decodes segment `seg` of `h` from its arithmetic stream, submitting its
// prepend bytes and re-encoded rows to `em` and always marking `seg`
// complete (success or failure — in-order emission never wedges). Polls
// `rc` every MCU row; a trip classifies as kTimeout. Returns kSuccess or
// the classified failure; never throws.
util::ExitCode decode_one_segment(const ContainerHeader& h,
                                  const jpegfmt::JpegFile& hdr,
                                  std::span<const std::uint8_t> arith,
                                  std::size_t seg, CodecContext& ctx,
                                  OrderedEmitter& em, DecodeRunFlags* flags,
                                  const RunControl* rc);

// Runs one container's segments on `ctx`'s pool into one OrderedEmitter
// over `sink`. Each segment runs exactly once, on whichever thread claims
// it first: a pool worker that picks up a start()ed segment, or the owner
// inside run_rest()/wait(), which takes over the segments no worker has
// reached yet. Segment failures follow one rule on every path: the runner's
// code is the code of the lowest-index failing segment.
//
// The owner (one thread at a time) calls start/run_rest/wait; `h`, `hdr`,
// `sink`, `ctx`, `flags` and every started stream must outlive the runner.
class SegmentRunner {
 public:
  SegmentRunner(const ContainerHeader& h, const jpegfmt::JpegFile& hdr,
                ByteSink& sink, const DecodeOptions& opts, CodecContext& ctx,
                DecodeRunFlags* flags);
  // Claims every started segment no thread has picked up (it never runs)
  // and waits for the running ones, so a runner dropped mid-stream — a
  // client hung up — leaves no pool thread writing into freed state.
  ~SegmentRunner();

  SegmentRunner(const SegmentRunner&) = delete;
  SegmentRunner& operator=(const SegmentRunner&) = delete;

  // Decodes segment `seg`, whose stream `arith` is complete, in the
  // background on the pool — or inline on the caller when the pool has no
  // workers.
  void start(std::size_t seg, std::span<const std::uint8_t> arith);

  // Starts every segment not yet started (`arith` holds every segment's
  // stream), waits as wait() does, and returns the code of the
  // lowest-index failing segment — kSuccess when none failed.
  util::ExitCode run_rest(const std::vector<std::vector<std::uint8_t>>& arith);

  // Runs the started segments no pool thread has picked up yet — on the
  // pool, the calling thread participating — and waits until every started
  // segment has finished.
  void wait();

  // The code of the lowest-index failing segment once every segment below
  // it has finished successfully; kSuccess until such a failure settles.
  // Any thread; a settled failure never changes.
  util::ExitCode settled_failure() const;

 private:
  // Shared with the queued pool tasks, which can outlive the runner: a
  // task whose segment was claimed first returns without touching it.
  struct Claims {
    explicit Claims(std::size_t n) : taken(n) {}
    std::vector<std::atomic<bool>> taken;
  };

  bool claim(std::size_t seg) { return !claims_->taken[seg].exchange(true); }
  void run_one(std::size_t seg, bool tripped);
  bool tripped() const { return rc_ != nullptr && rc_->tripped(); }

  const ContainerHeader& h_;
  const jpegfmt::JpegFile& hdr_;
  CodecContext& ctx_;
  DecodeRunFlags* flags_;
  const RunControl* rc_;
  OrderedEmitter em_;
  std::shared_ptr<Claims> claims_;

  // Written by the owner as a segment starts, before any thread can claim
  // it; only the owner reads started_ and n_started_.
  std::vector<std::uint8_t> started_;
  std::vector<std::span<const std::uint8_t>> arith_;
  std::size_t n_started_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // signalled as segments finish
  std::vector<std::optional<util::ExitCode>> status_;  // set when finished
  std::size_t n_done_ = 0;
  std::size_t settled_ = 0;  // segments [0, settled_) finished with success
};

}  // namespace lepton::core

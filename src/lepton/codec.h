// Whole-file Lepton encode/decode (§3).
//
// Encoding: one serial pass Huffman-decodes the original JPEG (this serial
// stage is the encoder's scaling bottleneck past 4 threads — §5.4/Fig 8),
// then thread segments arithmetic-code their MCU-row ranges in parallel
// with independent model copies.
//
// Decoding: each segment thread arithmetic-decodes its rows and immediately
// Huffman-re-encodes them from its handover word, streaming completed bytes
// to the caller's sink in order — time-to-first-byte does not wait for the
// whole container (§3.4).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "lepton/format.h"
#include "lepton/run_control.h"
#include "model/model.h"
#include "util/exit_codes.h"

namespace lepton {

class CodecContext;  // long-lived pool + scratch (context.h)

struct Result {
  util::ExitCode code = util::ExitCode::kSuccess;
  std::vector<std::uint8_t> data;
  std::string message;
  bool ok() const { return code == util::ExitCode::kSuccess; }
};

struct EncodeOptions {
  // Overrides the production size policy (threads_for_size: small files
  // get fewer segments — §5.4/Fig 7) with an exact segment count (benches
  // sweep thread counts explicitly; 0 = use the policy). 1 is "Lepton
  // 1-way" (§4.1): one segment over the whole image, maximum compression.
  // Where the segments run is the CodecContext's business: a context with
  // zero workers runs every segment on the calling thread.
  int force_threads = 0;
  // Optional cancellation/deadline control, polled by the segment workers
  // at MCU-row granularity (run_control.h). Non-owning: must outlive the
  // call. Sessions wire their own control in here; a trip classifies the
  // run as kTimeout.
  RunControl* run = nullptr;
  model::ModelOptions model;
};

struct DecodeOptions {
  // Same contract as EncodeOptions::run.
  RunControl* run = nullptr;
};

// Stream-consumption facts from a successful decode, for validation layers
// (verify.cpp's admissibility gate, the store's get() path, chunk decode).
// A well-formed container's arithmetic payload is consumed exactly: no
// overrun, nothing left over.
struct DecodeStats {
  // Some segment's BoolDecoder needed bytes past the end of its payload —
  // the stream was truncated relative to what the coded data demanded.
  bool payload_overrun = false;
  // Every segment consumed its payload to the end (without overrunning).
  bool payload_exhausted = true;
  // Exact counts behind the booleans, summed across segments: payload
  // bytes present in the container vs bytes the arithmetic decode actually
  // consumed. Equal on a well-formed container.
  std::uint64_t payload_bytes = 0;
  std::uint64_t payload_consumed = 0;
};

// Streaming output consumer. append() calls arrive in byte order.
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void append(std::span<const std::uint8_t> bytes) = 0;
};

class VectorSink : public ByteSink {
 public:
  void append(std::span<const std::uint8_t> b) override {
    data.insert(data.end(), b.begin(), b.end());
  }
  std::vector<std::uint8_t> data;
};

// Records time-to-first-byte and total bytes; wraps another sink (Fig 1's
// decode-speed axis measures time-to-last-byte, §3.4 motivates TTFB).
class TimingSink : public ByteSink {
 public:
  explicit TimingSink(ByteSink* inner = nullptr) : inner_(inner) {
    start_ = std::chrono::steady_clock::now();
  }
  void append(std::span<const std::uint8_t> b) override {
    if (!saw_first_ && !b.empty()) {
      first_byte_ = std::chrono::steady_clock::now();
      saw_first_ = true;
    }
    bytes_ += b.size();
    if (inner_ != nullptr) inner_->append(b);
  }
  double ttfb_seconds() const {
    return saw_first_
               ? std::chrono::duration<double>(first_byte_ - start_).count()
               : 0.0;
  }
  std::size_t bytes() const { return bytes_; }

 private:
  ByteSink* inner_;
  std::chrono::steady_clock::time_point start_, first_byte_;
  bool saw_first_ = false;
  std::size_t bytes_ = 0;
};

// Number of thread segments the production policy assigns to `bytes` of
// input (the visible cutoffs in Figures 7/8), at most the §5.4 maximum of 8.
int threads_for_size(std::size_t bytes);

// Compresses a baseline JPEG into a single Lepton container. Failures are
// classified, never thrown. The two-argument form runs on the process-wide
// default CodecContext (context.h); pass an explicit context to use a
// dedicated pool. Implemented as a whole-buffer wrapper over
// lepton::EncodeSession (session.h) — the streaming session is the one
// codec driver.
Result encode_jpeg(std::span<const std::uint8_t> jpeg,
                   const EncodeOptions& opts = {});
Result encode_jpeg(std::span<const std::uint8_t> jpeg,
                   const EncodeOptions& opts, CodecContext& ctx);

// Decompresses a Lepton container, streaming the original bytes to `sink`.
// Returns the §6.2 classification (data in the Result stays empty; the sink
// owns the bytes). `stats`, when given, reports payload-consumption facts
// for validation layers. Implemented as a whole-buffer wrapper over
// lepton::DecodeSession (session.h).
util::ExitCode decode_lepton(std::span<const std::uint8_t> lep, ByteSink& sink,
                             const DecodeOptions& opts = {});
util::ExitCode decode_lepton(std::span<const std::uint8_t> lep, ByteSink& sink,
                             const DecodeOptions& opts, CodecContext& ctx,
                             DecodeStats* stats = nullptr);

// Convenience: decode into a Result buffer.
Result decode_lepton(std::span<const std::uint8_t> lep,
                     const DecodeOptions& opts = {});

// Per-component compressed-size breakdown used by the Figure 4 bench.
struct ComponentBreakdown {
  std::uint64_t header_in = 0, header_out = 0;
  std::uint64_t dc_in_bits = 0, dc_out_bits = 0;
  std::uint64_t ac77_in_bits = 0, ac77_out_bits = 0;
  std::uint64_t edge_in_bits = 0, edge_out_bits = 0;
};

// Encode with instrumentation (single-segment; used by bench/fig04).
Result encode_jpeg_with_breakdown(std::span<const std::uint8_t> jpeg,
                                  const EncodeOptions& opts,
                                  ComponentBreakdown* breakdown);

}  // namespace lepton

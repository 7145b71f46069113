// Streaming codec sessions (§3.4, §5.7): the primary public API.
//
// The paper's deployment is network-paced — blockservers hand Lepton the
// bytes of a 4-MiB chunk as they arrive from the store, decode begins
// before the chunk has fully arrived, and every conversion runs under a
// time box that aborts it when the latency budget is blown. Sessions make
// that calling convention first-class:
//
//   lepton::VectorSink out;
//   lepton::DecodeSession s(out);                  // or (out, opts, &ctx)
//   s.control().set_deadline_after(std::chrono::milliseconds(50));
//   while (socket.read(slice)) {
//     if (s.feed(slice) != ExitCode::kSuccess) break;   // classified early
//   }
//   auto code = s.finish(&stats);                  // §6.2 classification
//
// feed() accepts slices of any size (single bytes included). Input is
// classified as early as the bytes allow: a non-Lepton stream fails at its
// first bytes, a hostile header fails when the header arrives — before the
// payload has been fetched. The verbatim JPEG header prefix is emitted to
// the sink as soon as the container header parses (time-to-first-byte does
// not wait for the payload), and each segment whose interleaved arithmetic
// stream completes mid-stream is handed to the context's pool at once:
// segments decode in parallel while feed() goes back to reading, and their
// output still reaches the sink in order — from pool threads. finish()
// decodes whatever remains, also in parallel on the pool, waits for the
// handed-off segments, and classifies a stream that ended early as
// kShortRead, a cancelled/expired session as kTimeout.
//
// EncodeSession is the same shape for compression. Encoding needs the whole
// file before planning (§3: the production system assembles the file before
// compressing later chunks), so feed() buffers — but it also runs a
// resumable JPEG header probe, so files the system does not admit
// (progressive, CMYK, non-images...) are rejected mid-upload, long before
// finish().
//
// Every whole-buffer entry point (encode_jpeg, decode_lepton, ChunkCodec,
// TransparentStore, the baselines adapter) is a feed-everything wrapper
// over these sessions: there is exactly one codec driver.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "lepton/codec.h"
#include "lepton/format.h"
#include "lepton/plan.h"
#include "lepton/run_control.h"

namespace lepton {

class CodecContext;

// ---- decode ----------------------------------------------------------------

class DecodeSession {
 public:
  // `sink` receives the original file bytes, in order, possibly before all
  // input has been fed. `ctx` (optional) pins the session to a dedicated
  // CodecContext; by default it runs on the process-wide context. When
  // opts.run is null the session owns its RunControl (see control()).
  explicit DecodeSession(ByteSink& sink, const DecodeOptions& opts = {},
                         CodecContext* ctx = nullptr);

  DecodeSession(const DecodeSession&) = delete;
  DecodeSession& operator=(const DecodeSession&) = delete;

  // Destroying an unfinished session (a client hung up) drops the handed-off
  // segments no pool thread has started and waits for the running ones;
  // trip control() first so they stop at their next MCU row.
  ~DecodeSession() = default;

  // The session's cancellation/deadline control — opts.run when the caller
  // supplied one, the session-owned control otherwise. May be tripped from
  // any thread while feed()/finish() runs on another.
  RunControl& control() { return *rc_; }

  // Consumes the next input slice (any size; bytes need not align with any
  // container structure). Returns kSuccess while the stream is healthy.
  // Failures are classified and sticky; once feed() reports an error the
  // session is dead and finish() returns the same code. A handed-off
  // segment that failed is reported by the next feed() once every segment
  // below it has finished: the session's code is always the code of the
  // lowest-index failing segment, as in a one-shot decode.
  util::ExitCode feed(std::span<const std::uint8_t> bytes);

  // Ends the input stream: decodes every segment not yet handed off (in
  // parallel on the context's pool when opts.run_parallel, the calling
  // thread helping), waits for the handed-off ones — on every path, so a
  // failed stream's started segments still report their consumption facts
  // — emits the suffix, and returns the final §6.2 classification. An
  // input stream that ended before the bytes its header promised is
  // kShortRead; a tripped RunControl is kTimeout. Idempotent. `stats`
  // (optional) receives payload-consumption facts.
  util::ExitCode finish(DecodeStats* stats = nullptr);

  // True once finish() has run (successfully or not).
  bool finished() const { return finished_; }

  // Progress visibility for pacing layers. segments_decoded() counts the
  // segments handed to the pool mid-stream (their decode may still run).
  bool header_ready() const { return validated_; }
  std::uint64_t bytes_fed() const { return parser_.bytes_consumed(); }
  std::size_t segments_decoded() const { return started_; }

  const std::string& message() const { return message_; }

 private:
  util::ExitCode fail(util::ExitCode code, std::string msg);
  util::ExitCode pump();
  // Fails the session with the runner's settled segment failure, if any.
  util::ExitCode check_segments();
  util::ExitCode finish_impl();

  ByteSink& sink_;
  DecodeOptions opts_;
  CodecContext& ctx_;
  RunControl own_rc_;
  RunControl* rc_;

  core::ContainerParser parser_;
  jpegfmt::JpegFile hdr_;    // parsed embedded JPEG header
  bool validated_ = false;   // header validated + prefix emitted
  std::size_t started_ = 0;  // completed segments handed to the runner
  core::DecodeRunFlags flags_;

  bool finished_ = false;
  util::ExitCode error_ = util::ExitCode::kSuccess;
  std::string message_;

  // Declared last: destroyed first, waiting for its pool tasks while the
  // parser's streams, the header and the flags they use are still alive.
  std::optional<core::SegmentRunner> runner_;
};

// ---- encode ----------------------------------------------------------------

class EncodeSession {
 public:
  explicit EncodeSession(const EncodeOptions& opts = {},
                         CodecContext* ctx = nullptr);

  EncodeSession(const EncodeSession&) = delete;
  EncodeSession& operator=(const EncodeSession&) = delete;

  RunControl& control() { return *rc_; }

  // Buffers the next slice of the JPEG file. The resumable header probe
  // classifies inadmissible files (progressive, CMYK, not-an-image, ...)
  // as soon as the offending marker arrives; the returned error is sticky.
  //
  // Lifetime: the fed bytes must stay valid until the *next* feed() or
  // finish call returns. A session fed exactly once (every one-shot
  // wrapper) borrows the caller's span and never copies the file; from the
  // second feed on, slices are accumulated into an internal buffer.
  util::ExitCode feed(std::span<const std::uint8_t> bytes);

  // Compresses the buffered file into one Lepton container, appended to
  // `sink`. Segment workers poll control() at MCU-row granularity; a trip
  // classifies as kTimeout. Idempotent per session (one container).
  util::ExitCode finish(ByteSink& sink);

  // Chunked finish (§3): one independent container per chunk_size byte
  // range of the input, appended to `*chunks`. Same classification rules.
  util::ExitCode finish_chunks(std::size_t chunk_size,
                               std::vector<std::vector<std::uint8_t>>* chunks);

  bool finished() const { return finished_; }
  std::uint64_t bytes_fed() const {
    return buffer_.size() + deferred_.size();
  }

  // True once the probe has seen a complete, plausible JPEG header (the
  // file may still be rejected by the full parse at finish()).
  bool header_seen() const;

  const std::string& message() const { return message_; }

 private:
  util::ExitCode fail(util::ExitCode code, std::string msg);
  // Shared prologue of the finish variants: probe/parse/scan-decode the
  // buffered file. Returns kSuccess and fills jf_/dec_ once.
  util::ExitCode prepare();
  // The input seen so far: the borrowed single-feed span, or the
  // accumulation buffer once a second feed forced a copy.
  std::span<const std::uint8_t> pending_input() const;

  EncodeOptions opts_;
  CodecContext& ctx_;
  RunControl own_rc_;
  RunControl* rc_;

  std::vector<std::uint8_t> buffer_;
  std::span<const std::uint8_t> deferred_;  // single-feed borrow (no copy)
  jpegfmt::JpegHeaderProbe probe_;

  bool prepared_ = false;
  jpegfmt::JpegFile jf_;
  jpegfmt::ScanDecodeResult dec_;

  bool finished_ = false;
  util::ExitCode error_ = util::ExitCode::kSuccess;
  std::string message_;
};

}  // namespace lepton

#include "lepton/session.h"

#include "lepton/context.h"
#include "lepton/plan.h"

namespace lepton {

using util::ExitCode;

// ---- DecodeSession ----------------------------------------------------------

DecodeSession::DecodeSession(ByteSink& sink, const DecodeOptions& opts,
                             CodecContext* ctx)
    : sink_(sink),
      opts_(opts),
      ctx_(ctx != nullptr ? *ctx : default_context()),
      rc_(opts.run != nullptr ? opts.run : &own_rc_) {
  opts_.run = rc_;  // the core drivers read the control from the options
}

ExitCode DecodeSession::fail(ExitCode code, std::string msg) {
  error_ = code;
  message_ = std::move(msg);
  return code;
}

ExitCode DecodeSession::pump() {
  // The header becomes usable the moment its bytes have arrived: validate
  // it (hostile headers die before the payload has even been fetched) and
  // emit the verbatim JPEG-header prefix — time-to-first-byte does not
  // wait for the arithmetic payload.
  if (parser_.header_ready() && !validated_) {
    try {
      hdr_ = core::validate_container_decode(parser_.header());
    } catch (const jpegfmt::ParseError& e) {
      return fail(e.code(), e.what());
    } catch (const std::exception& e) {
      return fail(ExitCode::kImpossible, e.what());
    }
    validated_ = true;
    const auto& h = parser_.header();
    sink_.append({h.jpeg_header.data() + h.prefix_off, h.prefix_len});
    runner_.emplace(h, hdr_, sink_, opts_, ctx_, &flags_);
  }
  if (!validated_ || parser_.complete()) return ExitCode::kSuccess;
  // Network-paced overlap: while later bytes are still in flight, hand
  // every segment whose interleaved arithmetic stream is complete to the
  // pool, in completion order; the runner's emitter keeps the output in
  // order and this thread goes back to reading. When the whole container
  // arrived in one feed, nothing starts here (complete() above) and
  // finish() fans every segment out at once, so the one-shot wrappers keep
  // full segment parallelism.
  const auto& done = parser_.completed_segments();
  while (started_ < done.size()) {
    const std::size_t seg = done[started_++];
    const auto& a = parser_.segment_arith(seg);
    runner_->start(seg, {a.data(), a.size()});
  }
  return check_segments();
}

ExitCode DecodeSession::check_segments() {
  ExitCode code = runner_ ? runner_->settled_failure() : ExitCode::kSuccess;
  return code == ExitCode::kSuccess ? code
                                    : fail(code, "segment decode failed");
}

ExitCode DecodeSession::feed(std::span<const std::uint8_t> bytes) {
  if (error_ != ExitCode::kSuccess) return error_;
  // Rejected without touching the sticky state: a stray late slice must
  // not rewrite the outcome of a finished session.
  if (finished_) return ExitCode::kImpossible;
  if (rc_->tripped()) return fail(ExitCode::kTimeout, "session cancelled");
  // A started segment that failed dooms the stream: stop before reading
  // more of it.
  if (check_segments() != ExitCode::kSuccess) return error_;
  // Nothing in this API throws on hostile input (lepton.h): allocation
  // failure from parser buffer growth classifies like any other internal
  // failure instead of escaping the never-throws contract.
  try {
    ExitCode code = parser_.feed(bytes);
    if (code != ExitCode::kSuccess) return fail(code, parser_.error_message());
    return pump();
  } catch (const jpegfmt::ParseError& e) {
    return fail(e.code(), e.what());
  } catch (const std::exception& e) {
    return fail(ExitCode::kImpossible, e.what());
  }
}

ExitCode DecodeSession::finish(DecodeStats* stats) {
  ExitCode code = finish_impl();
  // Consumption facts are reported on every path — including failures —
  // so truncation diagnostics keep what the started segments learned, and
  // repeated finish() calls answer identically.
  flags_.fill(stats);
  return code;
}

ExitCode DecodeSession::finish_impl() {
  if (finished_) return error_;
  finished_ = true;
  if (error_ == ExitCode::kSuccess) {
    if (rc_->tripped()) {
      fail(ExitCode::kTimeout, "session cancelled");
    } else if (!parser_.complete()) {
      // The connection ended before the bytes the container's own header
      // promised — the streaming counterpart of a truncated buffer.
      fail(ExitCode::kShortRead, "input ended mid-container");
    }
  }
  try {
    if (error_ != ExitCode::kSuccess) {
      // A failed stream still runs its started segments to the end, so
      // their consumption facts reach the stats.
      if (runner_) runner_->wait();
      return error_;
    }
    ExitCode code = runner_->run_rest(parser_.arith());
    if (code != ExitCode::kSuccess) {
      return fail(code, "segment decode failed");
    }
    const auto& h = parser_.header();
    sink_.append({h.suffix.data(), h.suffix.size()});
  } catch (const jpegfmt::ParseError& e) {
    return fail(e.code(), e.what());
  } catch (const std::exception& e) {
    return fail(ExitCode::kImpossible, e.what());
  }
  return ExitCode::kSuccess;
}

// ---- EncodeSession ----------------------------------------------------------

EncodeSession::EncodeSession(const EncodeOptions& opts, CodecContext* ctx)
    : opts_(opts),
      ctx_(ctx != nullptr ? *ctx : default_context()),
      rc_(opts.run != nullptr ? opts.run : &own_rc_) {
  opts_.run = rc_;
}

ExitCode EncodeSession::fail(ExitCode code, std::string msg) {
  error_ = code;
  message_ = std::move(msg);
  return code;
}

bool EncodeSession::header_seen() const {
  return probe_.status() == jpegfmt::HeaderProbeStatus::kComplete;
}

ExitCode EncodeSession::feed(std::span<const std::uint8_t> bytes) {
  if (error_ != ExitCode::kSuccess) return error_;
  // Rejected without touching the sticky state (see DecodeSession::feed).
  if (finished_) return ExitCode::kImpossible;
  if (rc_->tripped()) return fail(ExitCode::kTimeout, "session cancelled");
  if (bytes.empty()) return ExitCode::kSuccess;
  try {
    if (buffer_.empty() && deferred_.empty()) {
      // Single-feed fast path (every one-shot wrapper): borrow the
      // caller's span instead of copying a possibly multi-MB file. The
      // copy is deferred to the next feed() call, per the header contract.
      deferred_ = bytes;
    } else {
      if (!deferred_.empty()) {
        buffer_.assign(deferred_.begin(), deferred_.end());
        deferred_ = {};
      }
      buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    }
    if (probe_.update(pending_input()) ==
        jpegfmt::HeaderProbeStatus::kRejected) {
      return fail(probe_.reject_code(), probe_.reject_reason());
    }
  } catch (const std::exception& e) {
    return fail(ExitCode::kImpossible, e.what());
  }
  return ExitCode::kSuccess;
}

std::span<const std::uint8_t> EncodeSession::pending_input() const {
  return deferred_.empty()
             ? std::span<const std::uint8_t>{buffer_.data(), buffer_.size()}
             : deferred_;
}

ExitCode EncodeSession::prepare() {
  if (prepared_) return ExitCode::kSuccess;
  try {
    jf_ = jpegfmt::parse_jpeg(pending_input());
    dec_ = jpegfmt::decode_scan(jf_);
  } catch (const jpegfmt::ParseError& e) {
    return fail(e.code(), e.what());
  } catch (const std::exception& e) {
    return fail(ExitCode::kImpossible, e.what());
  }
  prepared_ = true;
  return ExitCode::kSuccess;
}

ExitCode EncodeSession::finish(ByteSink& sink) {
  if (finished_) return error_;
  finished_ = true;
  if (error_ != ExitCode::kSuccess) return error_;
  if (rc_->tripped()) return fail(ExitCode::kTimeout, "session cancelled");
  if (ExitCode c = prepare(); c != ExitCode::kSuccess) return c;
  try {
    auto plan = core::plan_whole_file(jf_, dec_, opts_);
    auto data = core::encode_container(jf_, dec_, plan, opts_, nullptr, ctx_);
    sink.append({data.data(), data.size()});
  } catch (const jpegfmt::ParseError& e) {
    return fail(e.code(), e.what());
  } catch (const std::exception& e) {
    return fail(ExitCode::kImpossible, e.what());
  }
  return ExitCode::kSuccess;
}

ExitCode EncodeSession::finish_chunks(
    std::size_t chunk_size, std::vector<std::vector<std::uint8_t>>* chunks) {
  if (finished_) return error_;
  finished_ = true;
  if (error_ != ExitCode::kSuccess) return error_;
  if (rc_->tripped()) return fail(ExitCode::kTimeout, "session cancelled");
  if (ExitCode c = prepare(); c != ExitCode::kSuccess) return c;
  try {
    std::uint64_t size = pending_input().size();
    for (std::uint64_t off = 0; off < size; off += chunk_size) {
      std::uint64_t end = std::min<std::uint64_t>(off + chunk_size, size);
      auto plan =
          core::plan_byte_range(jf_, dec_, off, end, opts_, /*is_chunk=*/true);
      chunks->push_back(
          core::encode_container(jf_, dec_, plan, opts_, nullptr, ctx_));
    }
  } catch (const jpegfmt::ParseError& e) {
    chunks->clear();
    return fail(e.code(), e.what());
  } catch (const std::exception& e) {
    chunks->clear();
    return fail(ExitCode::kImpossible, e.what());
  }
  return ExitCode::kSuccess;
}

}  // namespace lepton

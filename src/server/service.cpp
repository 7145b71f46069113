#include "server/service.h"

#include <sys/uio.h>

#include <algorithm>
#include <cstring>

#include "lepton/context.h"
#include "lepton/session.h"
#include "server/sockio.h"
#include "util/md5.h"

namespace lepton::server {
namespace {

using util::ExitCode;

// Streams session output as DATA frames. A send failure marks the sink
// broken and cancels the request's RunControl, so the session aborts at its
// next MCU-row poll instead of converting for a dead peer.
class SocketSink : public ByteSink {
 public:
  SocketSink(int fd, RunControl* rc) : fd_(fd), rc_(rc) {}

  void append(std::span<const std::uint8_t> b) override {
    if (broken_) return;
    std::size_t off = 0;
    while (off < b.size()) {
      auto n = static_cast<std::uint32_t>(
          std::min<std::size_t>(b.size() - off, kMaxDataFrame));
      std::uint8_t hdr[kFrameHeaderSize];
      write_frame_header(hdr, {FrameType::kData, 0, n});
      iovec iov[2] = {{hdr, kFrameHeaderSize},
                      {const_cast<std::uint8_t*>(b.data() + off), n}};
      if (!writev_all(iov)) {
        broken_ = true;
        rc_->request_cancel();
        return;
      }
      if (!saw_first_) {
        first_ = std::chrono::steady_clock::now();
        saw_first_ = true;
      }
      bytes_ += n;
      off += n;
    }
  }

  bool broken() const { return broken_; }
  std::uint64_t bytes() const { return bytes_; }
  bool saw_first() const { return saw_first_; }
  std::chrono::steady_clock::time_point first_byte() const { return first_; }

 private:
  bool writev_all(iovec iov[2]) {
    std::size_t total = iov[0].iov_len + iov[1].iov_len;
    // Failpoint "sock.write", same semantics as send_all's: a short
    // outcome delivers a prefix of this DATA frame and then breaks the
    // sink — the client sees a response die mid-frame.
    bool fail_after = false;
    if (util::failpoint::armed()) {
      total = failpoint_write(total, &fail_after);
      if (total == 0 && fail_after) return false;
    }
    std::size_t sent = 0;
    while (sent < total) {
      iovec cur[2];
      int cnt = 0;
      std::size_t skip = sent;
      for (int i = 0; i < 2; ++i) {
        if (skip >= iov[i].iov_len) {
          skip -= iov[i].iov_len;
          continue;
        }
        cur[cnt].iov_base = static_cast<std::uint8_t*>(iov[i].iov_base) + skip;
        cur[cnt].iov_len = iov[i].iov_len - skip;
        skip = 0;
        ++cnt;
      }
      msghdr msg{};
      msg.msg_iov = cur;
      msg.msg_iovlen = static_cast<std::size_t>(cnt);
      ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(w);
    }
    return !fail_after;
  }

  int fd_;
  RunControl* rc_;
  bool broken_ = false;
  bool saw_first_ = false;
  std::chrono::steady_clock::time_point first_;
  std::uint64_t bytes_ = 0;
};

// Tees session output: forwards every slice to the socket and keeps a
// bounded copy for decode-cache insertion. Output past the cap stops the
// copy (the cache would reject it anyway) but keeps streaming.
class CaptureSink : public ByteSink {
 public:
  CaptureSink(SocketSink& inner, std::size_t cap) : inner_(inner), cap_(cap) {}

  void append(std::span<const std::uint8_t> b) override {
    inner_.append(b);
    if (overflow_) return;
    if (copy_.size() + b.size() > cap_) {
      overflow_ = true;
      copy_.clear();
      copy_.shrink_to_fit();
      return;
    }
    copy_.insert(copy_.end(), b.begin(), b.end());
  }

  bool overflow() const { return overflow_; }
  std::vector<std::uint8_t> take() { return std::move(copy_); }

 private:
  SocketSink& inner_;
  std::size_t cap_;
  std::vector<std::uint8_t> copy_;
  bool overflow_ = false;
};

void append_kv(std::string& s, const char* key, std::uint64_t v) {
  s += key;
  s += ' ';
  s += std::to_string(v);
  s += '\n';
}

void append_kv_ms(std::string& s, const char* key, double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %.3f\n", key, seconds * 1000.0);
  s += buf;
}

}  // namespace

RequestService::RequestService(ServiceConfig cfg, CodecContext* ctx)
    : cfg_(std::move(cfg)), ctx_(ctx != nullptr ? *ctx : default_context()) {
  if (cfg_.store == nullptr) {
    own_store_ = std::make_unique<TransparentStore>();
    store_ = own_store_.get();
  } else {
    store_ = cfg_.store;
  }
  if (cfg_.decode_cache_bytes > 0) {
    storage::DecodeCacheConfig cc;
    cc.budget_bytes = cfg_.decode_cache_bytes;
    decode_cache_ = std::make_unique<storage::DecodeCache>(cc);
  }
}

void RequestService::reset() {
  draining_.store(false, std::memory_order_release);
  cancel_all_.store(false, std::memory_order_release);
}

void RequestService::begin_drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_.store(true, std::memory_order_release);
  }
  slot_cv_.notify_all();
}

void RequestService::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  slot_cv_.wait(lk, [&] { return stats_.in_flight == 0; });
}

void RequestService::cancel_all() {
  cancel_all_.store(true, std::memory_order_release);
}

void RequestService::record_connection() {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.connections;
}

void RequestService::record_short_read() {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.protocol_errors;
  stats_.trailer_codes.add(static_cast<unsigned>(ExitCode::kShortRead));
}

void RequestService::record_accept_retry() {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.accept_retries;
}

ServerStats RequestService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

bool RequestService::acquire_slot() {
  std::unique_lock<std::mutex> lk(mu_);
  slot_cv_.wait(lk, [&] {
    return draining_.load(std::memory_order_acquire) ||
           stats_.in_flight < cfg_.max_in_flight;
  });
  if (draining_.load(std::memory_order_acquire)) return false;
  ++stats_.requests;
  ++stats_.in_flight;
  if (stats_.in_flight > stats_.in_flight_peak) {
    stats_.in_flight_peak = stats_.in_flight;
  }
  return true;
}

void RequestService::release_slot() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    --stats_.in_flight;
  }
  slot_cv_.notify_all();
}

std::string RequestService::stats_text() {
  ServerStats s = stats();
  std::string t;
  t.reserve(512);
  append_kv(t, "stats_version", 1);
  append_kv(t, "connections", s.connections);
  append_kv(t, "requests", s.requests);
  append_kv(t, "bytes_in", s.bytes_in);
  append_kv(t, "bytes_out", s.bytes_out);
  append_kv(t, "protocol_errors", s.protocol_errors);
  append_kv(t, "oversized_rejects", s.oversized_rejects);
  append_kv(t, "disconnects", s.disconnects);
  append_kv(t, "shutoff_refusals", s.shutoff_refusals);
  append_kv(t, "accept_retries", s.accept_retries);
  append_kv(t, "in_flight", static_cast<std::uint64_t>(s.in_flight));
  append_kv(t, "in_flight_peak",
            static_cast<std::uint64_t>(s.in_flight_peak));
  append_kv(t, "shutoff_engaged", store_->shutoff_active() ? 1 : 0);
  append_kv_ms(t, "ttfb_p50_ms", s.ttfb_s.percentile(50));
  append_kv_ms(t, "ttfb_p99_ms", s.ttfb_s.percentile(99));
  append_kv_ms(t, "request_p50_ms", s.request_s.percentile(50));
  append_kv_ms(t, "request_p99_ms", s.request_s.percentile(99));
  for (unsigned code = 0; code < s.trailer_codes.ceiling(); ++code) {
    std::uint64_t n = s.trailer_codes.count(code);
    if (n == 0) continue;
    t += "trailer_code_";
    t += std::to_string(code);
    t += ' ';
    t += std::string(
        util::exit_code_name(static_cast<util::ExitCode>(code)));
    t += ' ';
    t += std::to_string(n);
    t += '\n';
  }
  // Additive keys (PROTOCOL.md §"STATS"): per-site failpoint counters,
  // present only while a chaos schedule is armed.
  if (util::failpoint::armed()) {
    append_kv(t, "failpoints_armed",
              static_cast<std::uint64_t>(util::failpoint::report().size()));
    t += util::failpoint::stats_text();
  }
  // Additive keys: decoded-output cache counters, present only when the
  // cache is configured (--decode-cache-mb / decode_cache_bytes).
  if (decode_cache_ != nullptr) t += decode_cache_->stats_text();
  if (cfg_.extra_stats) t += cfg_.extra_stats();
  return t;
}

bool RequestService::serve_stats(int fd) {
  std::string text = stats_text();
  std::uint8_t hdr[kFrameHeaderSize];
  write_frame_header(
      hdr, {FrameType::kData, 0, static_cast<std::uint32_t>(text.size())});
  // Like PING, a STATS round trip is not a conversion: it does not hold an
  // admission slot and its trailer is not tallied into trailer_codes.
  return send_all(fd, hdr, sizeof hdr) &&
         send_all(fd, text.data(), text.size()) &&
         send_trailer(fd, ExitCode::kSuccess, store_->shutoff_active(), 0,
                      text.size());
}

bool RequestService::serve_frame(ServiceConn& c,
                                 const std::uint8_t hdr[kFrameHeaderSize],
                                 const std::uint8_t* payload) {
  FrameHeader fh;
  if (!parse_frame_header(hdr, &fh)) {
    // Oversized declared length or a frame no version-1 client sends.
    // Rejected before any allocation; answer and hang up.
    bool oversized = static_cast<FrameType>(hdr[0]) == FrameType::kData;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (oversized) {
        ++stats_.oversized_rejects;
      } else {
        ++stats_.protocol_errors;
      }
      stats_.trailer_codes.add(static_cast<unsigned>(ExitCode::kImpossible));
    }
    (void)send_trailer(c.fd, ExitCode::kImpossible, store_->shutoff_active(),
                       0, 0);
    return false;
  }

  switch (fh.type) {
    case FrameType::kPing: {
      return fh.length == 0 &&
             send_trailer(c.fd, ExitCode::kSuccess, store_->shutoff_active(),
                          0, 0);
    }
    case FrameType::kStats: {
      return fh.length == 0 && serve_stats(c.fd);
    }
    case FrameType::kShutoff: {
      if (fh.length != 1) return false;
      auto op = static_cast<ShutoffOp>(payload[0]);
      if (op == ShutoffOp::kEngage) store_->set_shutoff(true);
      if (op == ShutoffOp::kClear) store_->set_shutoff(false);
      // Every SHUTOFF answer re-stats the shutoff file (bypassing the
      // 250 ms TTL cache): the operator asked *now*, not a TTL ago.
      bool state = store_->recheck_shutoff();
      return send_trailer(c.fd, ExitCode::kSuccess, state, 0, 0);
    }
    case FrameType::kEncode:
    case FrameType::kDecode: {
      return serve_request(c, hdr[0], payload, fh.length);
    }
    default: {
      // DATA/END/TRAILER outside a request: protocol violation.
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.protocol_errors;
        stats_.trailer_codes.add(
            static_cast<unsigned>(ExitCode::kImpossible));
      }
      (void)send_trailer(c.fd, ExitCode::kImpossible,
                         store_->shutoff_active(), 0, 0);
      return false;
    }
  }
}

bool RequestService::serve_request(ServiceConn& c, std::uint8_t open_type,
                                   const std::uint8_t* open_payload,
                                   std::uint32_t open_len) {
  const bool is_encode =
      static_cast<FrameType>(open_type) == FrameType::kEncode;
  OpenPayload open;
  if (!parse_open_payload(open_payload, open_len, &open) ||
      open.version != kProtocolVersion) {
    {
      // Never send while holding mu_: a client whose buffer is full would
      // stall every other connection's stats/trailer path.
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.protocol_errors;
      stats_.trailer_codes.add(static_cast<unsigned>(ExitCode::kImpossible));
    }
    (void)send_trailer(c.fd, ExitCode::kImpossible, store_->shutoff_active(),
                       0, 0);
    return false;
  }

  // Admission: block (not reject) until a slot frees — the unread socket is
  // the backpressure signal to this client, §5.5-style.
  if (!acquire_slot()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.trailer_codes.add(
          static_cast<unsigned>(ExitCode::kServerShutdown));
    }
    (void)send_trailer(c.fd, ExitCode::kServerShutdown,
                       store_->shutoff_active(), 0, 0);
    return false;
  }
  struct SlotGuard {
    RequestService* s;
    ~SlotGuard() { s->release_slot(); }
  } slot_guard{this};

  const auto start = std::chrono::steady_clock::now();
  c.rc.reset();
  const bool has_deadline = open.deadline_ms > 0;
  const auto deadline = start + std::chrono::milliseconds(open.deadline_ms);
  if (has_deadline) c.rc.set_deadline(deadline);

  // Failpoint "service.encode"/"service.decode": `delay` burns wall budget
  // inside the admission slot (a slow conversion, without needing one);
  // any failing action is an internal server failure — error trailer,
  // close, exactly the §6.6 signal that sends the caller to another box.
  if (util::failpoint::armed()) {
    util::failpoint::Outcome o = util::failpoint::hit(
        is_encode ? "service.encode" : "service.decode");
    if (o.action == util::failpoint::Action::kDelay) {
      std::this_thread::sleep_for(o.delay);
    } else if (o.fired()) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stats_.trailer_codes.add(
            static_cast<unsigned>(ExitCode::kImpossible));
      }
      (void)send_trailer(c.fd, ExitCode::kImpossible,
                         store_->shutoff_active(), 0, 0);
      return false;
    }
  }

  // §5.7 kill-switch: compression stops, decompression never does.
  if (is_encode && store_->shutoff_active()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.shutoff_refusals;
      stats_.trailer_codes.add(
          static_cast<unsigned>(ExitCode::kServerShutdown));
    }
    (void)send_trailer(c.fd, ExitCode::kServerShutdown, true, 0, 0);
    return false;
  }

  SocketSink sink(c.fd, &c.rc);
  EncodeOptions eopts = cfg_.encode_opts;
  eopts.run = &c.rc;
  DecodeOptions dopts = cfg_.decode_opts;
  dopts.run = &c.rc;
  // Cached-decode mode: the body is buffered and md5'd before any decode
  // work, so a hit can skip the session entirely (ServiceConfig rationale).
  const bool use_cache = !is_encode && decode_cache_ != nullptr;
  CaptureSink capture(sink,
                      use_cache ? decode_cache_->max_entry_bytes() : 0);
  std::vector<std::uint8_t> whole_body;
  // Exactly one of the two is used; both are cheap to construct.
  EncodeSession enc(eopts, &ctx_);
  DecodeSession dec(use_cache ? static_cast<ByteSink&>(capture)
                              : static_cast<ByteSink&>(sink),
                    dopts, &ctx_);

  // ---- body: DATA* then END ----
  // The whole body phase runs under an absolute wall budget: the request
  // deadline when one was given, and the idle window either way (a body
  // that cannot arrive within the idle window is indistinguishable from a
  // stalled one — and per-read inactivity alone is gameable by dribbling).
  auto body_deadline = start + cfg_.idle_read_timeout;
  if (has_deadline && deadline < body_deadline) body_deadline = deadline;
  std::uint64_t body_bytes = 0;
  ExitCode code = ExitCode::kSuccess;
  bool disconnected = false;
  for (;;) {
    std::uint8_t hdr_buf[kFrameHeaderSize];
    ReadStatus rs =
        read_exact_deadline(c.fd, hdr_buf, kFrameHeaderSize, body_deadline);
    if (rs == ReadStatus::kTimedOut) {
      // Deadline passed or the body stalled/dribbled past the idle window.
      code = ExitCode::kTimeout;
      break;
    }
    if (rs != ReadStatus::kOk) {
      disconnected = true;
      break;
    }
    FrameHeader fh;
    if (!parse_frame_header(hdr_buf, &fh)) {
      bool oversized = static_cast<FrameType>(hdr_buf[0]) == FrameType::kData;
      // The §6.2 memory-budget refusal: the declaration alone exceeds what
      // this request may allocate, so no buffer is ever sized for it.
      code = oversized ? (is_encode ? ExitCode::kMemLimitEncode
                                    : ExitCode::kMemLimitDecode)
                       : ExitCode::kImpossible;
      std::lock_guard<std::mutex> lk(mu_);
      if (oversized) {
        ++stats_.oversized_rejects;
      } else {
        ++stats_.protocol_errors;
      }
      break;
    }
    if (fh.type == FrameType::kEnd) {
      if (fh.length != 0) code = ExitCode::kImpossible;
      break;
    }
    if (fh.type != FrameType::kData) {
      code = ExitCode::kImpossible;
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.protocol_errors;
      break;
    }
    if (body_bytes + fh.length > cfg_.max_body_bytes) {
      code = is_encode ? ExitCode::kMemLimitEncode : ExitCode::kMemLimitDecode;
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.oversized_rejects;
      break;
    }
    std::vector<std::uint8_t>& buf = c.body[c.body_ix];
    c.body_ix ^= 1;
    buf.resize(fh.length);
    if (fh.length > 0) {
      rs = read_exact_deadline(c.fd, buf.data(), fh.length, body_deadline);
      if (rs == ReadStatus::kTimedOut) {
        code = ExitCode::kTimeout;
        break;
      }
      if (rs != ReadStatus::kOk) {
        disconnected = true;
        break;
      }
    }
    body_bytes += fh.length;
    if (use_cache) {
      // Deferred decode: accumulate (bounded by max_body_bytes, already
      // enforced above) and hash/decode after END.
      whole_body.insert(whole_body.end(), buf.begin(), buf.end());
    } else {
      code = is_encode ? enc.feed({buf.data(), buf.size()})
                       : dec.feed({buf.data(), buf.size()});
      if (code != ExitCode::kSuccess) break;
    }
  }

  if (disconnected) {
    // Mid-request hangup: cancel the session so nothing keeps converting
    // for a dead peer, record it, and close. No trailer — there is no one
    // left to read it.
    c.rc.request_cancel();
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.disconnects;
    stats_.trailer_codes.add(static_cast<unsigned>(ExitCode::kShortRead));
    return false;
  }

  // ---- finish + trailer ----
  if (code == ExitCode::kSuccess && use_cache) {
    std::string md5 =
        util::Md5::hex_digest({whole_body.data(), whole_body.size()});
    if (storage::DecodeCache::Value v = decode_cache_->get(md5)) {
      // Hit: the cached bytes ARE the decode (content-addressed by the
      // container md5 — identical containers decode identically), so the
      // session is never fed.
      sink.append({v->data(), v->size()});
    } else {
      code = dec.feed({whole_body.data(), whole_body.size()});
      if (code == ExitCode::kSuccess) {
        code = dec.finish();
      } else {
        (void)dec.finish();
      }
      if (code == ExitCode::kSuccess && !capture.overflow() &&
          !sink.broken()) {
        decode_cache_->put(
            md5, std::make_shared<const std::vector<std::uint8_t>>(
                     capture.take()));
      }
    }
  } else if (code == ExitCode::kSuccess) {
    code = is_encode ? enc.finish(sink) : dec.finish();
  } else if (!is_encode) {
    // The feed's sticky classification is the trailer code (probe/parse
    // rejections, kTimeout); finish() just finalizes the dead session.
    (void)dec.finish();
  }
  if (sink.broken()) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.disconnects;
    stats_.trailer_codes.add(static_cast<unsigned>(ExitCode::kShortRead));
    return false;
  }
  if (code == ExitCode::kTimeout &&
      cancel_all_.load(std::memory_order_acquire)) {
    code = ExitCode::kServerShutdown;  // server-initiated, not the budget
  }

  // Counters first, trailer second: a client acting on the trailer (tests
  // included) must never observe stats() that predate its own request.
  auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.bytes_in += body_bytes;
    stats_.bytes_out += sink.bytes();
    stats_.trailer_codes.add(static_cast<unsigned>(code));
    if (sink.saw_first()) {
      stats_.ttfb_s.add(
          std::chrono::duration<double>(sink.first_byte() - start).count());
    }
    stats_.request_s.add(std::chrono::duration<double>(now - start).count());
  }
  bool sent = send_trailer(c.fd, code, store_->shutoff_active(), body_bytes,
                           sink.bytes());
  if (!sent) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.disconnects;
  }
  // Keep the connection only after a clean success; every error trailer is
  // followed by a close so a confused client cannot desynchronize framing.
  return sent && code == ExitCode::kSuccess;
}

}  // namespace lepton::server

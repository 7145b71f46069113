#include "server/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "server/endpoint.h"
#include "server/sockio.h"

namespace lepton::server {
namespace {

using util::ExitCode;

std::string errno_message(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  std::span<const std::uint8_t> payload) {
  std::uint8_t hdr[kFrameHeaderSize];
  write_frame_header(hdr,
                     {type, 0, static_cast<std::uint32_t>(payload.size())});
  out.insert(out.end(), hdr, hdr + kFrameHeaderSize);
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace

std::string stats_value(std::span<const std::uint8_t> text,
                        std::string_view key) {
  std::string_view s(reinterpret_cast<const char*>(text.data()), text.size());
  while (!s.empty()) {
    const std::string_view line = s.substr(0, s.find('\n'));
    s.remove_prefix(std::min(s.size(), line.size() + 1));
    if (line.size() > key.size() + 1 && line.starts_with(key) &&
        line[key.size()] == ' ') {
      return std::string(line.substr(key.size() + 1));
    }
  }
  return "";
}

LeptonClient LeptonClient::connect(const std::string& endpoint) {
  LeptonClient c;
  Endpoint ep;
  std::string err;
  if (!parse_endpoint(endpoint, &ep, &err)) {
    c.message_ = err;
    return c;
  }
  int fd = connect_endpoint(ep, &err);
  if (fd < 0) {
    c.message_ = err;
    return c;
  }
  c.fd_ = fd;
  return c;
}

LeptonClient::~LeptonClient() { close(); }

LeptonClient::LeptonClient(LeptonClient&& other) noexcept
    : fd_(other.fd_), message_(std::move(other.message_)) {
  other.fd_ = -1;
}

LeptonClient& LeptonClient::operator=(LeptonClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    message_ = std::move(other.message_);
    other.fd_ = -1;
  }
  return *this;
}

void LeptonClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

RequestResult LeptonClient::encode(std::span<const std::uint8_t> jpeg,
                                   const RequestOptions& opts) {
  return transact(FrameType::kEncode, jpeg, opts);
}

RequestResult LeptonClient::decode(std::span<const std::uint8_t> lep,
                                   const RequestOptions& opts) {
  return transact(FrameType::kDecode, lep, opts);
}

RequestResult LeptonClient::ping(const RequestOptions& opts) {
  return transact(FrameType::kPing, {}, opts);
}

RequestResult LeptonClient::shutoff(ShutoffOp op) {
  std::uint8_t b = static_cast<std::uint8_t>(op);
  return transact(FrameType::kShutoff, {&b, 1}, {});
}

RequestResult LeptonClient::stats() {
  return transact(FrameType::kStats, {}, {});
}

RequestResult LeptonClient::transact(FrameType open_type,
                                     std::span<const std::uint8_t> body,
                                     const RequestOptions& opts) {
  RequestResult r;
  if (fd_ < 0) {
    r.code = ExitCode::kShortRead;
    r.message = "not connected";
    return r;
  }

  // ---- assemble the outgoing frame stream ----
  // Clamp the slice size into the protocol's valid range: 0 would divide
  // by zero and then never advance; anything over kMaxDataFrame would be
  // rejected by the server at the declaration.
  const std::uint32_t slice =
      std::clamp<std::uint32_t>(opts.slice_bytes, 1, kMaxDataFrame);
  std::vector<std::uint8_t> out;
  if (open_type == FrameType::kEncode || open_type == FrameType::kDecode) {
    out.reserve(body.size() + body.size() / slice * 16 + 64);
    std::uint8_t open_buf[kOpenPayloadSize];
    OpenPayload open;
    open.deadline_ms = static_cast<std::uint32_t>(opts.deadline.count());
    write_open_payload(open_buf, open);
    append_frame(out, open_type, {open_buf, kOpenPayloadSize});
    std::size_t off = 0;
    while (off < body.size()) {
      std::size_t n = std::min<std::size_t>(slice, body.size() - off);
      append_frame(out, FrameType::kData, body.subspan(off, n));
      off += n;
    }
    append_frame(out, FrameType::kEnd, {});
  } else {
    // PING / SHUTOFF: the open frame carries the whole request.
    append_frame(out, open_type, body);
  }

  // ---- full-duplex pump: send while draining response frames ----
  const auto start = std::chrono::steady_clock::now();
  const auto hard_stop = start + opts.transport_timeout;
  set_nonblocking(fd_, true);

  std::size_t sent = 0;
  std::vector<std::uint8_t> rbuf;   // undissected response bytes
  std::size_t rpos = 0;             // consumed prefix of rbuf
  bool saw_first = false, got_trailer = false, dead = false;
  std::uint8_t chunk[64 << 10];

  while (!got_trailer && !dead) {
    // Dissect buffered response frames first.
    while (!got_trailer) {
      std::size_t avail = rbuf.size() - rpos;
      if (avail < kFrameHeaderSize) break;
      FrameHeader fh;
      if (!parse_frame_header(rbuf.data() + rpos, &fh)) {
        r.code = ExitCode::kImpossible;
        r.message = "malformed response frame";
        dead = true;
        break;
      }
      if (avail < kFrameHeaderSize + fh.length) break;
      const std::uint8_t* payload = rbuf.data() + rpos + kFrameHeaderSize;
      if (fh.type == FrameType::kData) {
        if (!saw_first && fh.length > 0) {
          saw_first = true;
          r.ttfb_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
        }
        r.data.insert(r.data.end(), payload, payload + fh.length);
      } else if (fh.type == FrameType::kTrailer) {
        TrailerPayload t;
        if (!parse_trailer_payload(payload, fh.length, &t)) {
          r.code = ExitCode::kImpossible;
          r.message = "malformed trailer";
          dead = true;
          break;
        }
        r.code = static_cast<ExitCode>(t.exit_code);
        r.server_bytes_in = t.bytes_in;
        r.server_bytes_out = t.bytes_out;
        r.shutoff_engaged = t.shutoff_engaged;
        r.transport_ok = true;
        got_trailer = true;
      } else {
        r.code = ExitCode::kImpossible;
        r.message = "unexpected response frame type";
        dead = true;
        break;
      }
      rpos += kFrameHeaderSize + fh.length;
    }
    if (got_trailer || dead) break;
    if (rpos > 0) {
      // Compact every pass: recv chunks rarely end on frame boundaries,
      // and without this the consumed prefix of a streamed response
      // accumulates for the whole request (~2x the body in memory).
      rbuf.erase(rbuf.begin(),
                 rbuf.begin() + static_cast<std::ptrdiff_t>(rpos));
      rpos = 0;
    }

    auto now = std::chrono::steady_clock::now();
    if (now >= hard_stop) {
      r.code = ExitCode::kTimeout;
      r.message = "transport timeout";
      dead = true;
      break;
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    if (sent < out.size()) pfd.events |= POLLOUT;
    int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(hard_stop - now)
            .count() +
        1);
    int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      r.code = ExitCode::kShortRead;
      r.message = errno_message("poll");
      dead = true;
      break;
    }
    if (pr == 0) continue;  // loop re-checks the hard stop

    if ((pfd.revents & POLLOUT) != 0 && sent < out.size()) {
      ssize_t w = ::send(fd_, out.data() + sent, out.size() - sent,
                         MSG_NOSIGNAL);
      if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != EINTR) {
        // The server may legally answer-and-close before reading our whole
        // body (error trailer, §"Request lifecycle"); keep draining input
        // and let the read side decide the outcome.
        sent = out.size();
      } else if (w > 0) {
        sent += static_cast<std::size_t>(w);
      }
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n > 0) {
        rbuf.insert(rbuf.end(), chunk, chunk + n);
      } else if (n == 0 ||
                 (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                  errno != EINTR)) {
        // A hard reset (TCP RST — the server died or the network did) is a
        // transport failure exactly like a silent close: kShortRead with
        // transport_ok == false, so the fleet requeue path retries it on
        // another server (§6.6) instead of misreading it as a protocol
        // violation of this one.
        r.code = ExitCode::kShortRead;
        r.message = n == 0 ? "connection closed before trailer"
                           : (errno == ECONNRESET
                                  ? "connection reset before trailer"
                                  : errno_message("recv"));
        dead = true;
      }
    }
  }

  r.total_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  set_nonblocking(fd_, false);
  // The server closes after every non-success trailer (PROTOCOL.md); match
  // it so the next request reconnects instead of desynchronizing.
  if (!r.transport_ok || r.code != ExitCode::kSuccess) close();
  return r;
}

}  // namespace lepton::server

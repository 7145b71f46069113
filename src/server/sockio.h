// Blocking-socket I/O helpers shared by the serving stack (internal).
//
// The event plane and the request service read frames with the same
// discipline: exact-length reads, EINTR retried, a clean pre-first-byte
// close distinguished from a mid-frame truncation, and — for request
// bodies — an *absolute* wall budget re-armed onto SO_RCVTIMEO before
// every recv, because per-read inactivity timeouts alone are gameable by
// dribbling one byte per interval (the slow-loris hole).
#pragma once

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <thread>

#include "server/protocol.h"
#include "util/exit_codes.h"
#include "util/failpoint.h"

namespace lepton::server {

// Failpoint "sock.write": evaluated per send_all/writev_all call when a
// schedule is armed. `err` fails the write outright; `short` delivers a
// PRNG-sized prefix first — the peer sees a frame die partway, the §6.2
// short write; `delay` stalls the writer, then proceeds.
//
// Returns the number of bytes the caller may still send (n = proceed
// normally), with *fail_now set when the write must then report failure.
inline std::size_t failpoint_write(std::size_t n, bool* fail_now) {
  using util::failpoint::Action;
  util::failpoint::Outcome o = util::failpoint::hit("sock.write");
  switch (o.action) {
    case Action::kDelay:
      std::this_thread::sleep_for(o.delay);
      return n;
    case Action::kErr:
    case Action::kFail:
      errno = o.err;
      *fail_now = true;
      return 0;
    case Action::kShort:
      errno = ECONNRESET;
      *fail_now = true;
      return n == 0 ? 0 : o.draw % n;
    case Action::kNone:
      return n;
  }
  return n;
}

inline bool send_all(int fd, const void* data, std::size_t n) {
  bool fail_after = false;
  if (util::failpoint::armed()) {
    n = failpoint_write(n, &fail_after);
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return !fail_after;
}

inline timeval to_timeval(std::chrono::milliseconds ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms.count() % 1000) * 1000);
  return tv;
}

inline void set_recv_timeout(int fd, std::chrono::milliseconds ms) {
  timeval tv = to_timeval(ms);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

// Response writes must not block forever on a client that stops reading:
// with a send timeout, a stalled ::sendmsg fails with EAGAIN, the sink
// marks itself broken, and the request unwinds through the disconnect
// path — releasing its admission slot instead of wedging stop()/drain.
// The slow consumer pays with its connection.
inline void set_send_timeout(int fd, std::chrono::milliseconds ms) {
  timeval tv = to_timeval(ms);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

inline void set_nonblocking(int fd, bool on) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK));
}

enum class ReadStatus { kOk, kEof, kTruncated, kTimedOut, kError };

// Failpoint "sock.read": `err` reports a transport error without reading,
// `short` reports a mid-frame truncation, `delay` stalls the reader then
// proceeds. Returns true when the read should proceed normally.
inline bool failpoint_read(ReadStatus* rs) {
  using util::failpoint::Action;
  util::failpoint::Outcome o = util::failpoint::hit("sock.read");
  switch (o.action) {
    case Action::kDelay:
      std::this_thread::sleep_for(o.delay);
      return true;
    case Action::kErr:
    case Action::kFail:
      errno = o.err;
      *rs = ReadStatus::kError;
      return false;
    case Action::kShort:
      *rs = ReadStatus::kTruncated;
      return false;
    case Action::kNone:
      return true;
  }
  return true;
}

// Reads exactly `n` bytes. kEof only when the peer closed cleanly before
// the first byte; a close partway through is kTruncated (the §6.2 short
// read, at the frame layer).
inline ReadStatus read_exact(int fd, std::uint8_t* out, std::size_t n) {
  if (util::failpoint::armed()) {
    ReadStatus rs;
    if (!failpoint_read(&rs)) return rs;
  }
  std::size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r == 0) return got == 0 ? ReadStatus::kEof : ReadStatus::kTruncated;
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::kTimedOut;
      return ReadStatus::kError;
    }
    got += static_cast<std::size_t>(r);
  }
  return ReadStatus::kOk;
}

// Deadline-bounded read_exact: re-arms SO_RCVTIMEO with the *remaining*
// wall budget before every recv. Plain SO_RCVTIMEO alone bounds only
// inactivity — a hostile client dribbling one byte per interval restarts
// the idle window forever while holding an admission slot (slow loris);
// the absolute deadline is what actually bounds the body phase.
inline ReadStatus read_exact_deadline(
    int fd, std::uint8_t* out, std::size_t n,
    std::chrono::steady_clock::time_point deadline) {
  if (util::failpoint::armed()) {
    ReadStatus rs;
    if (!failpoint_read(&rs)) return rs;
  }
  std::size_t got = 0;
  while (got < n) {
    auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remain.count() <= 0) return ReadStatus::kTimedOut;
    set_recv_timeout(fd, remain + std::chrono::milliseconds(1));
    ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r == 0) return got == 0 ? ReadStatus::kEof : ReadStatus::kTruncated;
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::kTimedOut;
      return ReadStatus::kError;
    }
    got += static_cast<std::size_t>(r);
  }
  return ReadStatus::kOk;
}

inline bool send_trailer(int fd, util::ExitCode code, bool shutoff,
                         std::uint64_t in, std::uint64_t out) {
  std::uint8_t buf[kFrameHeaderSize + kTrailerPayloadSize];
  write_frame_header(buf, {FrameType::kTrailer, 0, kTrailerPayloadSize});
  TrailerPayload t;
  t.exit_code = static_cast<std::uint8_t>(code);
  t.shutoff_engaged = shutoff;
  t.bytes_in = in;
  t.bytes_out = out;
  write_trailer_payload(buf + kFrameHeaderSize, t);
  return send_all(fd, buf, sizeof buf);
}

}  // namespace lepton::server

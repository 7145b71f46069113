// Transport-independent request service for the Lepton protocol (§5, §6.6).
//
// A server has two halves: a *connection plane* (accepting and scheduling
// connections, and bounding how many requests run at once with its fixed
// worker pool — leptond/event_server.h) and the *request semantics* (frame
// switch, drain admission, deadlines, body wall budget, kill-switch,
// stats, trailer discipline). The second half lives here. RequestService
// knows nothing about how connections are accepted, scheduled, or torn
// down; the plane hands it a connection fd plus the request's open frame
// and gets back "keep this connection or close it".
//
// The split is why cross-transport byte-identity holds by construction:
// AF_UNIX and TCP connections execute the same serve_frame.
//
// Every ENCODE and DECODE has one path: each DATA frame is fed to the
// request's session as it arrives, so a DECODE's output starts before END
// (§3.4). The service keeps no decoded output between requests; the
// content-addressed decode cache lives in the storage plane
// (storage/decode_cache.h), which depends on this layer, never the reverse.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lepton/codec.h"
#include "lepton/run_control.h"
#include "lepton/store.h"
#include "server/protocol.h"
#include "util/stats.h"

namespace lepton {
class CodecContext;
}

namespace lepton::server {

struct ServiceConfig {
  // Total request-body cap (sum of DATA payloads).
  std::uint64_t max_body_bytes = 6u << 20;

  // Three bounds in one knob: (a) how long a connection may sit idle
  // between requests; (b) the *wall-clock* budget for reading one request
  // body — absolute, not per-read, so a one-byte-per-interval dribble
  // cannot re-arm it forever while holding a worker (a request
  // with a tighter deadline uses that instead); (c) the send timeout on
  // response writes, so a client that stops reading is disconnected
  // rather than wedging its worker.
  std::chrono::milliseconds idle_read_timeout{30000};

  // Kill-switch authority (§5.7); when null the service owns a private
  // TransparentStore so the switch still works per-process.
  TransparentStore* store = nullptr;
};

// A point-in-time copy of the service's counters (taken under the stats
// mutex; cheap enough for tests to poll).
struct ServerStats {
  std::uint64_t connections = 0;         // accepted
  std::uint64_t requests = 0;            // open frames admitted
  std::uint64_t bytes_in = 0;            // request body bytes consumed
  std::uint64_t bytes_out = 0;           // response DATA bytes emitted
  std::uint64_t protocol_errors = 0;     // malformed frames / bad version
  std::uint64_t oversized_rejects = 0;   // declared length over cap
  std::uint64_t disconnects = 0;         // connection died mid-request
  std::uint64_t shutoff_refusals = 0;    // ENCODE refused by kill-switch
  std::uint64_t accept_retries = 0;      // accept() backoffs (EMFILE/ENFILE)
  int in_flight = 0;                     // requests being served now
  int in_flight_peak = 0;
  // §6.2 classification of every request/connection outcome: the code of
  // each trailer sent, plus kShortRead for requests whose peer vanished
  // before a trailer could be delivered (those also count in disconnects).
  util::CodeTally trailer_codes;
  // Bounded reservoirs, not exact sample sets: a daemon must not grow
  // per-request stats (or the stats() snapshot copy) without limit.
  util::ReservoirPercentiles ttfb_s;     // request admit -> first DATA out
  util::ReservoirPercentiles request_s;  // request admit -> trailer sent
};

// Per-connection request state. rc lives here (not in the request scope)
// so a plane's shutdown_now can trip an in-flight request's control from
// another thread while the serving thread is inside feed()/finish().
struct ServiceConn {
  int fd = -1;
  RunControl rc;
  // The DATA frame being read. Sessions copy what they keep, so each frame
  // reuses this one buffer.
  std::vector<std::uint8_t> body;
};

class RequestService {
 public:
  explicit RequestService(ServiceConfig cfg, CodecContext* ctx = nullptr);

  RequestService(const RequestService&) = delete;
  RequestService& operator=(const RequestService&) = delete;

  TransparentStore* store() { return store_; }
  const ServiceConfig& config() const { return cfg_; }

  // Installs the owning plane's STATS rows: facts only the connection
  // plane knows (worker and open-connection counts), as "key value\n"
  // lines. Set once, before the plane starts serving; the callback runs
  // on request threads, outside the stats mutex.
  void set_extra_stats(std::function<std::string()> fn) {
    extra_stats_ = std::move(fn);
  }

  // ---- lifecycle (driven by the owning plane) ----
  // Clears drain/cancel state; call when the plane (re)starts.
  void reset();
  // Starts the graceful drain: no new request is admitted — an ENCODE or
  // DECODE served from here on is answered kServerShutdown.
  void begin_drain();
  // Hard-stop posture: in-flight requests that trip their deadline from
  // here on trail as kServerShutdown (server-initiated), not kTimeout.
  void cancel_all();

  // ---- the request path ----
  // Serves one request whose open frame the plane has already read from
  // c.fd: the 8-byte header `hdr` plus, for ENCODE/DECODE/SHUTOFF, its
  // control payload `payload` (header-declared length, <= kMaxControlFrame;
  // unused for other frame types). The request body, when the frame opens
  // one, is read from c.fd here, under the wall budget. Returns true iff
  // the connection may carry another request.
  bool serve_frame(ServiceConn& c, const std::uint8_t hdr[kFrameHeaderSize],
                   const std::uint8_t* payload);

  // ---- plane-owned events recorded into the shared counters ----
  void record_connection();
  // A frame died mid-header (the wire-level short read).
  void record_short_read();
  // The plane's accept loop backed off on EMFILE/ENFILE and retried.
  void record_accept_retry();

  ServerStats stats() const;

  // The STATS response body: "key value" text lines of a stats snapshot
  // plus the plane's set_extra_stats rows. Exposed for tests and leptonctl.
  std::string stats_text();

 private:
  bool serve_request(ServiceConn& c, std::uint8_t open_type,
                     const std::uint8_t* open_payload, std::uint32_t open_len);
  // The admitted part of serve_request: everything between the in_flight
  // increment and its decrement.
  bool serve_admitted(ServiceConn& c, bool is_encode, const OpenPayload& open);
  bool serve_stats(int fd);

  ServiceConfig cfg_;
  std::function<std::string()> extra_stats_;
  CodecContext& ctx_;
  std::unique_ptr<TransparentStore> own_store_;
  TransparentStore* store_ = nullptr;

  std::atomic<bool> draining_{false};
  std::atomic<bool> cancel_all_{false};

  mutable std::mutex mu_;
  ServerStats stats_;
};

}  // namespace lepton::server

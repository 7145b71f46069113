// Thin client for the Lepton compression server (docs/PROTOCOL.md).
//
// One LeptonClient wraps one connection and issues sequential requests:
//
//   auto cli = lepton::server::LeptonClient::connect(endpoint);
//   auto r = cli.encode(jpeg_bytes, {.deadline = 50ms});
//   if (r.code == util::ExitCode::kSuccess) use(r.data);
//
// The transact loop is full-duplex: the request body is sent while response
// frames are drained, because the server streams decode output *during* the
// body (TTFB before the container has fully arrived) and a client that only
// reads after writing everything would deadlock both socket buffers — the
// flow-control rule PROTOCOL.md §"Flow control" makes normative.
//
// Per-request facts (TTFB, wall time, byte counts, the trailer's server-side
// counters) are surfaced so pacing layers — FleetClient in
// storage/fleet_client.h, the micro_server bench — can aggregate them
// through util/stats.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "util/exit_codes.h"

namespace lepton::server {

struct RequestOptions {
  // 0 = no deadline. Carried in the open frame; the server arms it on the
  // request session's RunControl, so expiry comes back as kTimeout.
  std::chrono::milliseconds deadline{0};
  // Client-side guard against a hung server/transport (poll ceiling).
  std::chrono::milliseconds transport_timeout{60000};
  // Size of the DATA slices the body is cut into.
  std::uint32_t slice_bytes = 64 << 10;
};

struct RequestResult {
  // False when the conversation itself failed (connect/IO error, truncated
  // response, malformed trailer); `code` then holds the transport-level
  // classification (kShortRead/kTimeout) and `message` the detail. The
  // response body in `data` is authoritative only when transport_ok and
  // code == kSuccess.
  bool transport_ok = false;
  util::ExitCode code = util::ExitCode::kImpossible;
  std::vector<std::uint8_t> data;
  std::string message;

  // Client-side clocking.
  double ttfb_s = 0;   // request sent -> first response DATA byte
  double total_s = 0;  // request sent -> trailer (or failure)

  // Trailer facts (server-side byte counts, kill-switch state).
  std::uint64_t server_bytes_in = 0;
  std::uint64_t server_bytes_out = 0;
  bool shutoff_engaged = false;

  bool ok() const { return transport_ok && code == util::ExitCode::kSuccess; }
};

// The value of one "key value" row of a STATS body (docs/PROTOCOL.md
// §"STATS"); empty when the row is absent. The key matches a whole token,
// so "in_flight" never reads the "in_flight_peak" row.
std::string stats_value(std::span<const std::uint8_t> text,
                        std::string_view key);

class LeptonClient {
 public:
  // Connects to a server endpoint — "unix:/path", a bare filesystem path,
  // or "tcp:host:port" (endpoint.h; TCP sockets get TCP_NODELAY). Check
  // ok(); a failed connect keeps the failure's message in message().
  static LeptonClient connect(const std::string& endpoint);

  LeptonClient() = default;
  ~LeptonClient();
  LeptonClient(LeptonClient&& other) noexcept;
  LeptonClient& operator=(LeptonClient&& other) noexcept;
  LeptonClient(const LeptonClient&) = delete;
  LeptonClient& operator=(const LeptonClient&) = delete;

  bool ok() const { return fd_ >= 0; }
  const std::string& message() const { return message_; }

  // body = JPEG file; result.data = Lepton container.
  RequestResult encode(std::span<const std::uint8_t> jpeg,
                       const RequestOptions& opts = {});
  // body = Lepton container; result.data = original JPEG bytes.
  RequestResult decode(std::span<const std::uint8_t> lep,
                       const RequestOptions& opts = {});
  // Liveness probe; result.shutoff_engaged reports the (TTL-cached) switch.
  // `opts` only matters for its transport_timeout (health probes use a
  // tight one); a deadline is meaningless for a request with no session.
  RequestResult ping(const RequestOptions& opts = {});
  // Kill-switch operation; result.shutoff_engaged is the state after the
  // op, from a forced (TTL-bypassing) re-check.
  RequestResult shutoff(ShutoffOp op);
  // Operator metrics: result.data holds the server's STATS text ("key
  // value" lines — docs/PROTOCOL.md §"STATS"). A pre-STATS server answers
  // kImpossible and closes; that is the defined probe semantics.
  RequestResult stats();

  void close();

 private:
  RequestResult transact(FrameType open_type,
                         std::span<const std::uint8_t> body,
                         const RequestOptions& opts);

  int fd_ = -1;
  std::string message_;
};

}  // namespace lepton::server

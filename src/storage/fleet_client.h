// Self-healing fleet client: the §6.6 router over a fleet of Lepton daemons
// (§6 deployment).
//
// FleetClient is the object a blockserver keeps for the life of the
// process. It routes each conversion to a daemon, and a conversion that
// fails for a server-local reason (blown time box, dead transport, draining
// or kill-switched machine) is requeued on a *different* daemon whenever
// another one is routable — with one endpoint it retries in place. Around
// that rule:
//
//   * a background prober re-pings every endpoint on an interval with
//     jitter, so recovery is discovered without waiting for a request to
//     fail into a dead box;
//   * a per-endpoint circuit breaker: closed -> open after N consecutive
//     transport failures -> half-open after a cooldown, where exactly one
//     probe request (or a prober PING) is allowed through — success closes
//     the breaker, failure re-opens it;
//   * retry budgets with exponential backoff + jitter between attempts;
//   * least-in-flight routing fed by STATS polling (the daemon's
//     `in_flight` key) plus locally outstanding requests, or seeded
//     uniform routing like the production load balancers (§5.5);
//   * graceful degradation: put() admits via the §5.7 round-trip gate when
//     the fleet converts, and stores the original bytes pass-through
//     (StorageKind::kPassthrough) when it cannot — a fleet-wide outage
//     costs compression ratio, never durability or availability.
//
// Health-checked routing is one probe_now() before traffic: its STATS poll
// opens the breaker of a dead endpoint (threshold permitting) and of a
// kill-switched one (the trailer's shutoff flag) for encode fleets.
//
// Determinism: all routing/jitter randomness draws from one seeded Rng, so
// a chaos run (tests/fault_test.cpp, examples/chaos_fleet.cpp) replays
// from its seed.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "lepton/store.h"
#include "util/exit_codes.h"
#include "util/rng.h"
#include "util/stats.h"

namespace lepton::storage {

enum class FleetOp { kEncode, kDecode };

// Per-request record (tests verify byte-identity and the first-timeout/
// second-success shape from these).
struct RequestTrace {
  int attempts = 0;
  int first_server = -1;
  int final_server = -1;
  util::ExitCode first_code = util::ExitCode::kSuccess;
  util::ExitCode final_code = util::ExitCode::kSuccess;
  double ttfb_s = 0;    // of the final attempt
  double total_s = 0;   // sum over attempts and backoffs (what the user waited)
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::vector<std::uint8_t> data;  // final response body (empty on failure)
};

struct RequeueMetrics {
  std::uint64_t requests = 0;
  std::uint64_t requeues = 0;            // attempts beyond the first
  std::uint64_t succeeded = 0;
  std::uint64_t transport_failures = 0;  // connect/IO-level attempt failures
  std::uint64_t health_probes = 0;       // prober PINGs + STATS polls issued
  std::uint64_t unhealthy_endpoints = 0; // demotions: dead or kill-switched
  std::uint64_t breaker_opens = 0;       // closed/half-open -> open
  std::uint64_t breaker_closes = 0;      // half-open probe succeeded
  std::uint64_t half_open_probes = 0;    // requests routed as breaker probes
  std::uint64_t breaker_fast_fails = 0;  // refused: every breaker open
  std::uint64_t backoff_retries = 0;     // retries that slept a backoff
  double backoff_wait_s = 0;             // total backoff sleep
  std::uint64_t passthrough_fallbacks = 0;  // puts degraded to pass-through
  util::CodeTally first_attempt_codes;   // §6.2 tally of attempt #1
  util::CodeTally final_codes;           // §6.2 tally after requeueing
  util::Percentiles ttfb_s;
  util::Percentiles latency_s;           // end-to-end, retries included
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

const char* breaker_state_name(BreakerState s);

struct FleetClientConfig {
  // One per serving daemon: "unix:/path", a bare socket path, or
  // "tcp:host:port" (server/endpoint.h).
  std::vector<std::string> endpoints;
  // The op probe_now() judges health for: a kill-switched daemon is
  // unhealthy for encodes only (§5.7: stored data must always read back).
  FleetOp op = FleetOp::kEncode;

  // Deadline for the first attempt; 0 = none.
  std::chrono::milliseconds first_deadline{100};
  // Deadline for requeued attempts; 0 = none (the paper's requeue pipeline
  // is the patient path — the file must eventually convert or classify).
  std::chrono::milliseconds retry_deadline{0};
  // First try + requeues. 2 is the paper's timeout -> second-server shape.
  int max_attempts = 3;

  // Exponential backoff between retryable attempts: attempt k (1-based
  // retry) sleeps in [base*2^(k-1)/2, base*2^(k-1)], capped — full jitter
  // over the upper half, drawn from the client seed.
  std::chrono::milliseconds backoff_base{10};
  std::chrono::milliseconds backoff_cap{1000};

  // Circuit breaker: open after `breaker_threshold` *consecutive*
  // transport failures; half-open once `breaker_cooldown` elapses.
  int breaker_threshold = 3;
  std::chrono::milliseconds breaker_cooldown{500};

  // Background prober. start() spawns it when enabled; probe_now() runs
  // one pass synchronously either way (tests drive it directly).
  bool background_probe = false;
  std::chrono::milliseconds probe_interval{1000};
  double probe_jitter = 0.25;  // interval scales by 1 +/- jitter
  std::chrono::milliseconds health_timeout{250};

  // Route to the candidate with the fewest in-flight requests (server-
  // reported via STATS + locally outstanding); false = seeded uniform.
  bool least_in_flight = true;

  std::uint64_t seed = 66;  // §6.6
};

// Operator-visible view of one endpoint's health (leptonctl-style tables,
// tests, the chaos soak report).
struct EndpointHealth {
  std::string endpoint;
  BreakerState state = BreakerState::kClosed;
  int consecutive_failures = 0;
  std::uint64_t server_in_flight = 0;   // last STATS-reported depth
  std::uint64_t local_outstanding = 0;  // our requests currently against it
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;           // transport-level
};

class FleetClient {
 public:
  explicit FleetClient(FleetClientConfig cfg);
  ~FleetClient();

  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  // Spawns the background prober (no-op unless cfg.background_probe).
  void start();
  // Joins the prober. Safe to call repeatedly; the destructor calls it.
  void stop();

  // One conversion through the fleet with breakers, backoff and requeue.
  // trace.final_code == kSuccess means trace.data holds the response body.
  // When every breaker is open and none is due a probe, fails fast with
  // kServerShutdown and zero attempts (the §6.6 server-local class — the
  // caller's fallback logic treats it like a draining fleet).
  RequestTrace convert(FleetOp op, std::span<const std::uint8_t> body);

  struct PutResult {
    StoredObject object;
    bool passthrough = false;          // degraded to the original bytes
    util::ExitCode fleet_code = util::ExitCode::kSuccess;  // conversion verdict
    int attempts = 0;
  };

  // The §4 admit path over the fleet: encode remotely, gate through
  // store.admit_converted (md5 + byte-identical local round trip), and on
  // *any* failure — breakers exhausted, retries exhausted, content
  // classification, round-trip mismatch — degrade to
  // store.put_passthrough and tally it. Never errors, never loses a byte.
  PutResult put(const TransparentStore& store,
                std::span<const std::uint8_t> jpeg);

  // One synchronous probe pass (the prober thread's body): due open
  // breakers go half-open and get a PING probe; closed endpoints get a
  // STATS poll that refreshes in-flight depth and doubles as a health
  // check. Returns the number of endpoints probed.
  int probe_now();

  RequeueMetrics metrics() const;
  std::vector<EndpointHealth> endpoints() const;

  // Test hook: pretend the server last reported this in-flight depth
  // (least-in-flight routing is deterministic given these).
  void inject_reported_in_flight(std::size_t index, std::uint64_t depth);

 private:
  struct Peer {
    std::string endpoint;
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point open_until{};
    bool half_open_busy = false;  // the one allowed half-open probe is out
    std::uint64_t server_in_flight = 0;
    std::uint64_t local_outstanding = 0;
    std::uint64_t successes = 0;
    std::uint64_t failures = 0;
  };

  // All three take mu_ held. pick_locked never returns `exclude` (the
  // endpoint whose attempt just failed) while another endpoint is routable;
  // -1 when nothing is.
  int pick_locked(std::chrono::steady_clock::time_point now, int exclude);
  void record_success_locked(std::size_t ix);
  void record_transport_failure_locked(std::size_t ix);

  void prober_main();

  FleetClientConfig cfg_;
  mutable std::mutex mu_;
  std::vector<Peer> peers_;
  RequeueMetrics metrics_;
  util::Rng rng_;

  std::thread prober_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;
};

}  // namespace lepton::storage

// Deployment scenario (§5.5, §6.6), in two acts.
//
// Act 1 — capacity planning: the event simulator compares the paper's
// outsourcing strategies for an oversubscribed blockserver fleet (the
// experiment behind Figures 9 and 10).
//
// Act 2 — the serving path itself: two real event-plane servers come up on
// local sockets, real conversions route through a FleetClient with
// per-request deadlines, and a conversion that blows its time box is
// requeued on the second server (§6.6: "timeouts ... the chunk is then
// requeued; a second server will attempt the conversion with a longer
// window"). This is the wiring the simulator only models: session deadlines
// -> kTimeout trailers -> fleet requeue, with per-request TTFB/bytes/
// exit-code stats.
//
// Act 3 — the daemon fleet: three event-plane TCP daemons (the leptond
// connection plane) on local ports, one of them kill-switched and one
// endpoint pointing at nothing, served through a FleetClient that probes
// once before traffic — the probe routes traffic around the dead and
// refusing members.
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "lepton/context.h"
#include "leptond/event_server.h"
#include "storage/fleet.h"
#include "storage/fleet_client.h"
#include "util/exit_codes.h"

using namespace lepton::storage;

namespace {

std::string code_name(unsigned c) {
  return std::string(
      lepton::util::exit_code_name(static_cast<lepton::util::ExitCode>(c)));
}

std::unique_ptr<lepton::leptond::EventServer> start_server(
    const std::string& listen, lepton::CodecContext* ctx) {
  lepton::leptond::EventServerConfig ec;
  ec.listen = listen;
  ec.workers = 2;
  auto srv = std::make_unique<lepton::leptond::EventServer>(std::move(ec), ctx);
  if (!srv->start()) {
    std::fprintf(stderr, "cannot listen on %s: %s\n", listen.c_str(),
                 srv->last_error().c_str());
    return nullptr;
  }
  return srv;
}

void act1_simulated_outsourcing() {
  WorkloadModel wl;
  wl.peak_encode_rate = 128.0;  // ≈8 conversions/s per blockserver at peak

  std::printf("act 1: simulated 16 blockservers + 4 dedicated, 6h around peak\n\n");
  std::printf("%-14s %10s %12s %12s %12s %12s\n", "policy", "conv", "outsrc%",
              "p50 s", "p95 s", "p99 s");
  for (auto policy : {OutsourcePolicy::kControl, OutsourcePolicy::kToSelf,
                      OutsourcePolicy::kToDedicated}) {
    FleetConfig cfg;
    cfg.blockservers = 16;
    cfg.dedicated = 4;
    cfg.policy = policy;
    cfg.sim_start_hour = 14.0;
    auto m = simulate_fleet(cfg, wl, 0.25);
    const char* name = policy == OutsourcePolicy::kControl
                           ? "control"
                           : (policy == OutsourcePolicy::kToSelf
                                  ? "to-self"
                                  : "to-dedicated");
    std::printf("%-14s %10llu %11.1f%% %12.3f %12.3f %12.3f\n", name,
                static_cast<unsigned long long>(m.conversions),
                100.0 * m.outsourced / std::max<std::uint64_t>(1, m.conversions),
                m.latency_all.percentile(50), m.latency_all.percentile(95),
                m.latency_all.percentile(99));
  }
  std::printf("\npaper's verdict (§5.5.1): outsourcing halves the peak p99; "
              "the dedicated cluster wins at peak, to-self also lowers the "
              "median by removing hotspots\n");
}

int act2_real_requeue() {
  std::printf("\nact 2: real conversions, timeout -> requeue -> second server "
              "(§6.6)\n\n");

  // Two compression servers sharing one warm CodecContext, like two
  // daemons on one box would share nothing but the hardware.
  lepton::CodecContext ctx(4);
  std::string base = "unix:/tmp/lepton_fleet_example_" +
                     std::to_string(static_cast<long>(::getpid()));
  auto s1 = start_server(base + "_a.sock", &ctx);
  auto s2 = start_server(base + "_b.sock", &ctx);
  if (!s1 || !s2) return 1;

  // A handful of real JPEGs, large enough that an aggressive first-attempt
  // deadline trips mid-conversion.
  std::vector<std::vector<std::uint8_t>> files;
  for (int i = 0; i < 6; ++i) {
    files.push_back(lepton::corpus::jpeg_of_size(160 << 10, 7000 + i));
  }

  FleetClientConfig fc;
  fc.endpoints = {s1->bound_address(), s2->bound_address()};
  fc.first_deadline = std::chrono::milliseconds(4);   // §6.6: tight window
  fc.retry_deadline = std::chrono::milliseconds(0);   // requeue is patient
  fc.max_attempts = 2;
  fc.backoff_base = std::chrono::milliseconds(0);
  FleetClient fleet(fc);
  std::vector<RequestTrace> traces;
  for (const auto& f : files) {
    traces.push_back(fleet.convert(FleetOp::kEncode, f));
  }
  auto m = fleet.metrics();

  std::printf("%-8s %9s %8s %-14s %-14s %9s %9s\n", "request", "bytes",
              "attempts", "first code", "final code", "ttfb ms", "total ms");
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto& t = traces[i];
    std::printf("%-8zu %9llu %8d %-14s %-14s %9.1f %9.1f\n", i,
                static_cast<unsigned long long>(t.bytes_in), t.attempts,
                code_name(static_cast<unsigned>(t.first_code)).c_str(),
                code_name(static_cast<unsigned>(t.final_code)).c_str(),
                1e3 * t.ttfb_s, 1e3 * t.total_s);
  }
  std::printf("\nrequests=%llu requeues=%llu succeeded=%llu\n",
              static_cast<unsigned long long>(m.requests),
              static_cast<unsigned long long>(m.requeues),
              static_cast<unsigned long long>(m.succeeded));
  std::printf("first-attempt codes: %s\n",
              lepton::util::format_code_tally(m.first_attempt_codes,
                                              code_name).c_str());
  std::printf("final codes:         %s\n",
              lepton::util::format_code_tally(m.final_codes,
                                              code_name).c_str());
  std::printf("latency (s):         %s\n",
              lepton::util::format_percentiles(m.latency_s).c_str());

  auto stats = s1->stats();
  auto stats2 = s2->stats();
  std::printf("server a: %llu requests, %llu bytes out; server b: %llu "
              "requests, %llu bytes out\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.bytes_out),
              static_cast<unsigned long long>(stats2.requests),
              static_cast<unsigned long long>(stats2.bytes_out));

  s1->stop();
  s2->stop();
  if (m.succeeded != m.requests) {
    std::fprintf(stderr, "expected every request to convert after requeue\n");
    return 1;
  }
  std::printf("\nevery request converted; the ones that timed out on their "
              "first server finished on the second with no deadline — the "
              "paper's requeue pipeline in one table\n");
  return 0;
}

int act3_tcp_daemon_fleet() {
  std::printf("\nact 3: health-checked requeue over a TCP daemon fleet\n\n");

  lepton::CodecContext ctx(4);
  // Ephemeral ports, read back after start.
  auto d1 = start_server("tcp:127.0.0.1:0", &ctx);
  auto d2 = start_server("tcp:127.0.0.1:0", &ctx);
  auto d3 = start_server("tcp:127.0.0.1:0", &ctx);
  if (!d1 || !d2 || !d3) return 1;
  // Daemon 3 is kill-switched: it answers probes (shutoff engaged in the
  // trailer) but would refuse every encode.
  d3->service().store()->set_shutoff(true);

  std::vector<std::vector<std::uint8_t>> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back(lepton::corpus::jpeg_of_size(96 << 10, 9000 + i));
  }

  // One probe pass before traffic demotes the dead endpoint (one transport
  // failure opens its breaker) and the kill-switched one (the STATS
  // trailer's shutoff flag); the cooldown outlasts the act.
  FleetClientConfig fc;
  fc.endpoints = {d1->bound_address(), d2->bound_address(),
                  d3->bound_address(),
                  "tcp:127.0.0.1:9"};  // nobody listens here
  fc.first_deadline = std::chrono::milliseconds(0);
  fc.breaker_threshold = 1;
  fc.breaker_cooldown = std::chrono::minutes(10);
  FleetClient fleet(fc);
  fleet.probe_now();
  for (const auto& f : files) (void)fleet.convert(FleetOp::kEncode, f);
  auto m = fleet.metrics();

  std::printf("endpoints: 2 healthy, 1 kill-switched, 1 dead\n");
  std::printf("probes=%llu demoted=%llu requests=%llu requeues=%llu "
              "succeeded=%llu\n",
              static_cast<unsigned long long>(m.health_probes),
              static_cast<unsigned long long>(m.unhealthy_endpoints),
              static_cast<unsigned long long>(m.requests),
              static_cast<unsigned long long>(m.requeues),
              static_cast<unsigned long long>(m.succeeded));
  auto sa = d1->stats(), sb = d2->stats(), sc = d3->stats();
  std::printf("daemon requests: healthy-a=%llu healthy-b=%llu "
              "kill-switched=%llu\n",
              static_cast<unsigned long long>(sa.requests),
              static_cast<unsigned long long>(sb.requests),
              static_cast<unsigned long long>(sc.requests));

  d1->stop();
  d2->stop();
  d3->stop();
  if (m.succeeded != m.requests || sc.requests != 0) {
    std::fprintf(stderr,
                 "expected all conversions on the two healthy daemons\n");
    return 1;
  }
  std::printf("\nall conversions landed on the two healthy daemons; the "
              "dead and kill-switched endpoints never saw a request\n");
  return 0;
}

}  // namespace

int main() {
  act1_simulated_outsourcing();
  if (int rc = act2_real_requeue(); rc != 0) return rc;
  return act3_tcp_daemon_fleet();
}

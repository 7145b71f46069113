// Serving-layer microbench: what the socket front-end costs over the
// in-process sessions it drives, with the event plane on both transports.
// Measures ping RTT (pure protocol + kernel hop), served
// encode/decode round-trip throughput against the in-process one-shot path
// on the same warm CodecContext, served decode TTFB (the §3.4
// streamed-output property must survive the wire), the event plane's
// idle-connection scaling (ping RTT and process thread count with 0, 256
// and 1024 parked keep-alive TCP connections), and a two-daemon TCP soak
// (concurrent well-behaved clients through one shared FleetClient + hostile
// dribblers; request p50/p99 and the §6.6 requeue rate). Appends a "bench": "server" entry to the
// committed BENCH_hotpath.json trajectory next to micro_hotpath's per-PR
// entries (docs/OPERATIONS.md explains how to read the file).
//
// Flags: --full for the larger corpus band, --out <path> for the JSON,
// --pr <n> for the trajectory entry id (default: this PR),
// --transport unix|tcp|both (default both) to pick the measured
// transports — CI's perf smoke runs --transport tcp.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "lepton/lepton.h"
#include "leptond/event_server.h"
#include "server/client.h"
#include "server/endpoint.h"
#include "storage/fleet_client.h"
#include "util/rng.h"

namespace {

// Bump once per PR that changes serving-layer performance.
constexpr int kCurrentPr = 7;

int process_threads() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

int raw_connect(const std::string& endpoint) {
  lepton::server::Endpoint ep;
  std::string err;
  if (!lepton::server::parse_endpoint(endpoint, &ep, &err)) return -1;
  return lepton::server::connect_endpoint(ep, &err);
}

struct TransportNumbers {
  double ping_rtt_us = 0;
  double enc_served = 0;  // MB/s
  double dec_served = 0;  // MB/s
  double ttfb_p50 = 0, ttfb_p95 = 0;  // ms
};

// The served measurements against one endpoint (either transport).
TransportNumbers measure_endpoint(
    const std::string& endpoint, double mb,
    const std::vector<std::vector<std::uint8_t>>& files,
    const std::vector<std::vector<std::uint8_t>>& leps) {
  TransportNumbers out;
  auto cli = lepton::server::LeptonClient::connect(endpoint);
  if (!cli.ok()) {
    std::fprintf(stderr, "connect %s: %s\n", endpoint.c_str(),
                 cli.message().c_str());
    std::abort();
  }
  const int kPings = 2000;
  double ping_s = bench::best_of(3, [&] {
    for (int i = 0; i < kPings; ++i) {
      if (!cli.ping().ok()) std::abort();
    }
  });
  out.ping_rtt_us = ping_s / kPings * 1e6;

  double enc_s = bench::best_of(3, [&] {
    for (const auto& f : files) {
      if (!cli.encode({f.data(), f.size()}).ok()) std::abort();
    }
  });
  lepton::util::Percentiles ttfb_ms;
  double dec_s = bench::best_of(3, [&] {
    for (const auto& l : leps) {
      auto r = cli.decode({l.data(), l.size()});
      if (!r.ok()) std::abort();
      ttfb_ms.add(1e3 * r.ttfb_s);
    }
  });
  out.enc_served = mb / enc_s;
  out.dec_served = mb / dec_s;
  out.ttfb_p50 = ttfb_ms.percentile(50);
  out.ttfb_p95 = ttfb_ms.percentile(95);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = bench::want_full(argc, argv);
  std::string out_path = "BENCH_hotpath.json";
  std::string transport = "both";
  int pr = kCurrentPr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
    if (std::string(argv[i]) == "--pr") pr = std::atoi(argv[i + 1]);
    if (std::string(argv[i]) == "--transport") transport = argv[i + 1];
  }
  const bool want_unix = transport != "tcp";
  const bool want_tcp = transport != "unix";

  bench::header("micro_server: socket front-end overhead over sessions",
                "§5 runs Lepton as socket-fronted daemons; the serving hop "
                "must cost protocol framing, not throughput");

  lepton::CodecContext ctx(4);

  // The event plane on AF_UNIX and on TCP (the leptond shape) — served
  // throughput must be transport-invariant.
  lepton::leptond::EventServerConfig uc;
  uc.listen = "unix:/tmp/lepton_micro_server_" +
              std::to_string(static_cast<long>(::getpid())) + ".sock";
  uc.workers = 4;
  lepton::leptond::EventServer srv(std::move(uc), &ctx);
  lepton::leptond::EventServerConfig ec;
  ec.listen = "tcp:127.0.0.1:0";
  ec.workers = 4;
  lepton::leptond::EventServer tcp_srv(std::move(ec), &ctx);
  if (!srv.start() || !tcp_srv.start()) {
    std::fprintf(stderr, "cannot start servers\n");
    return 1;
  }

  // Baseline JPEGs only; anomalies would end requests in error trailers
  // (and connection closes), which is a different benchmark.
  std::vector<std::vector<std::uint8_t>> files;
  std::size_t jpeg_bytes = 0;
  for (const auto& f : bench::corpus(full)) {
    if (f.kind != lepton::corpus::FileKind::kBaselineJpeg) continue;
    files.push_back(f.bytes);
    jpeg_bytes += f.bytes.size();
  }
  std::vector<std::vector<std::uint8_t>> leps;
  for (const auto& f : files) {
    auto e = ctx.encode({f.data(), f.size()});
    if (!e.ok()) {
      std::fprintf(stderr, "corpus encode failed: %s\n", e.message.c_str());
      return 1;
    }
    leps.push_back(std::move(e.data));
  }
  double mb = jpeg_bytes / 1e6;

  // ---- in-process baselines ----
  double enc_local_s = bench::best_of(3, [&] {
    for (const auto& f : files) {
      if (!ctx.encode({f.data(), f.size()}).ok()) std::abort();
    }
  });
  double dec_local_s = bench::best_of(3, [&] {
    for (const auto& l : leps) {
      lepton::VectorSink sink;
      if (ctx.decode({l.data(), l.size()}, sink) !=
          lepton::util::ExitCode::kSuccess) {
        std::abort();
      }
    }
  });
  double enc_local = mb / enc_local_s, dec_local = mb / dec_local_s;

  // ---- served, per transport ----
  TransportNumbers un, tc;
  if (want_unix) un = measure_endpoint(srv.bound_address(), mb, files, leps);
  if (want_tcp) {
    tc = measure_endpoint(tcp_srv.bound_address(), mb, files, leps);
  }

  std::printf("%-38s %10s\n", "metric", "value");
  std::printf("%-38s %8.2f MB/s\n", "encode, in-process one-shot", enc_local);
  std::printf("%-38s %8.2f MB/s\n", "decode, in-process one-shot", dec_local);
  auto print_transport = [&](const char* name, const TransportNumbers& t) {
    std::printf("%-38s %8.1f us\n",
                (std::string(name) + " ping round trip").c_str(),
                t.ping_rtt_us);
    std::printf("%-38s %8.2f MB/s (%.1f%% of in-process)\n",
                (std::string(name) + " served encode").c_str(), t.enc_served,
                100.0 * t.enc_served / enc_local);
    std::printf("%-38s %8.2f MB/s (%.1f%% of in-process)\n",
                (std::string(name) + " served decode").c_str(), t.dec_served,
                100.0 * t.dec_served / dec_local);
    std::printf("%-38s %8.2f ms (p95 %.2f)\n",
                (std::string(name) + " served decode TTFB").c_str(),
                t.ttfb_p50, t.ttfb_p95);
  };
  if (want_unix) print_transport("unix/event-plane", un);
  if (want_tcp) print_transport("tcp/event-plane", tc);
  std::printf("  (%zu corpus files, %.2f MB, warm context, best of 3)\n",
              files.size(), mb);

  // ---- idle-connection sweep (the event plane's scaling claim) ----
  // Park keep-alive TCP connections on the daemon and re-measure ping RTT
  // and the process thread count: connections must cost epoll
  // registrations, not threads, and the live path must not degrade.
  std::vector<int> idle_counts = {0, 256, 1024};
  std::vector<double> idle_rtt_us;
  std::vector<int> idle_threads;
  if (want_tcp) {
    std::vector<int> parked;
    auto cli = lepton::server::LeptonClient::connect(tcp_srv.bound_address());
    if (!cli.ok()) return 1;
    for (int target : idle_counts) {
      while (static_cast<int>(parked.size()) < target) {
        int fd = raw_connect(tcp_srv.bound_address());
        if (fd < 0) {
          std::fprintf(stderr, "idle connect failed at %zu\n", parked.size());
          return 1;
        }
        parked.push_back(fd);
      }
      const int kPings = 500;
      double s = bench::best_of(2, [&] {
        for (int i = 0; i < kPings; ++i) {
          if (!cli.ping().ok()) std::abort();
        }
      });
      idle_rtt_us.push_back(s / kPings * 1e6);
      idle_threads.push_back(process_threads());
      std::printf("%5d idle conns: ping %8.1f us, %3d process threads\n",
                  target, idle_rtt_us.back(), idle_threads.back());
    }
    for (int fd : parked) ::close(fd);
  }

  // ---- two-daemon TCP soak: concurrency + hostiles + requeue rate ----
  // A second daemon joins; well-behaved clients convert concurrently through
  // one shared FleetClient with tight first deadlines (requeue to the other
  // daemon, patient), while hostile half-frame dribblers squat on the loops.
  // The §6.6 shape under load: every request converts, p99 stays bounded,
  // hostiles cost nothing.
  std::size_t soak_requests = 0, soak_requeues = 0, soak_failures = 0;
  double soak_p50_ms = 0, soak_p99_ms = 0;
  if (want_tcp) {
    lepton::leptond::EventServerConfig e2;
    e2.listen = "tcp:127.0.0.1:0";
    e2.workers = 4;
    lepton::leptond::EventServer tcp_srv2(std::move(e2), &ctx);
    if (!tcp_srv2.start()) return 1;
    const std::string eps[2] = {tcp_srv.bound_address(),
                                tcp_srv2.bound_address()};

    std::vector<int> hostiles;
    for (int i = 0; i < 16; ++i) {
      int fd = raw_connect(eps[i % 2]);
      if (fd < 0) continue;
      std::uint8_t half[4] = {0x01, 0x00, 0x00, 0x00};
      (void)::send(fd, half, sizeof half, MSG_NOSIGNAL);
      hostiles.push_back(fd);
    }

    lepton::storage::FleetClientConfig fc;
    fc.endpoints = {eps[0], eps[1]};
    fc.first_deadline = std::chrono::milliseconds(20);  // trips under load
    fc.retry_deadline = std::chrono::milliseconds(0);   // patient retry
    fc.max_attempts = 2;
    fc.backoff_base = std::chrono::milliseconds(0);
    fc.least_in_flight = false;  // uniform, like the load balancers
    lepton::storage::FleetClient fleet(fc);

    const int kThreads = full ? 8 : 4;
    const int kPerThread = full ? 12 : 6;
    std::mutex mu;
    lepton::util::Percentiles lat_ms;
    std::atomic<std::size_t> failures{0};
    auto soak_worker = [&](int tix) {
      lepton::util::Rng rng(1000 + static_cast<std::uint64_t>(tix));
      for (int i = 0; i < kPerThread; ++i) {
        const auto& body = files[static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(files.size())))];
        auto t0 = std::chrono::steady_clock::now();
        auto tr = fleet.convert(lepton::storage::FleetOp::kEncode,
                                {body.data(), body.size()});
        double ms = 1e3 * std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        std::lock_guard<std::mutex> lk(mu);
        lat_ms.add(ms);
        if (tr.final_code != lepton::util::ExitCode::kSuccess) {
          failures.fetch_add(1);
        }
      }
    };
    std::vector<std::thread> soakers;
    for (int t = 0; t < kThreads; ++t) soakers.emplace_back(soak_worker, t);
    for (auto& t : soakers) t.join();
    for (int fd : hostiles) ::close(fd);

    soak_requests = static_cast<std::size_t>(kThreads) *
                    static_cast<std::size_t>(kPerThread);
    soak_requeues = fleet.metrics().requeues;
    soak_failures = failures.load();
    soak_p50_ms = lat_ms.percentile(50);
    soak_p99_ms = lat_ms.percentile(99);
    std::printf(
        "soak: %zu requests x %d threads, 16 hostile conns: p50 %.1f ms, "
        "p99 %.1f ms, requeue rate %.2f, failures %zu\n",
        soak_requests, kThreads, soak_p50_ms, soak_p99_ms,
        soak_requests ? static_cast<double>(soak_requeues) / soak_requests
                      : 0.0,
        soak_failures);
    tcp_srv2.stop();
  }

  auto stats = srv.stats();
  auto tstats = tcp_srv.stats();
  std::vector<std::string> entries =
      bench::read_trajectory_entries(out_path, pr, "server");
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "[\n");
  for (const auto& e : entries) std::fprintf(out, "%s,\n", e.c_str());
  std::fprintf(out,
               "{\n"
               "  \"pr\": %d,\n"
               "  \"bench\": \"server\",\n"
               "  \"ping_rtt_us\": %.1f,\n"
               "  \"encode_local_MBps\": %.2f,\n"
               "  \"encode_served_MBps\": %.2f,\n"
               "  \"encode_served_fraction\": %.3f,\n"
               "  \"decode_local_MBps\": %.2f,\n"
               "  \"decode_served_MBps\": %.2f,\n"
               "  \"decode_served_fraction\": %.3f,\n"
               "  \"decode_ttfb_ms_p50\": %.2f,\n"
               "  \"decode_ttfb_ms_p95\": %.2f,\n"
               "  \"tcp_ping_rtt_us\": %.1f,\n"
               "  \"tcp_encode_served_MBps\": %.2f,\n"
               "  \"tcp_decode_served_MBps\": %.2f,\n"
               "  \"tcp_decode_ttfb_ms_p50\": %.2f,\n"
               "  \"tcp_vs_unix_encode_fraction\": %.3f,\n",
               pr, un.ping_rtt_us, enc_local, un.enc_served,
               un.enc_served > 0 ? un.enc_served / enc_local : 0.0, dec_local,
               un.dec_served,
               un.dec_served > 0 ? un.dec_served / dec_local : 0.0,
               un.ttfb_p50, un.ttfb_p95, tc.ping_rtt_us, tc.enc_served,
               tc.dec_served, tc.ttfb_p50,
               un.enc_served > 0 && tc.enc_served > 0
                   ? tc.enc_served / un.enc_served
                   : 0.0);
  std::fprintf(out, "  \"idle_conns\": [");
  for (std::size_t i = 0; i < idle_rtt_us.size(); ++i) {
    std::fprintf(out, "%s%d", i ? ", " : "", idle_counts[i]);
  }
  std::fprintf(out, "],\n  \"idle_ping_rtt_us\": [");
  for (std::size_t i = 0; i < idle_rtt_us.size(); ++i) {
    std::fprintf(out, "%s%.1f", i ? ", " : "", idle_rtt_us[i]);
  }
  std::fprintf(out, "],\n  \"idle_process_threads\": [");
  for (std::size_t i = 0; i < idle_threads.size(); ++i) {
    std::fprintf(out, "%s%d", i ? ", " : "", idle_threads[i]);
  }
  std::fprintf(out,
               "],\n"
               "  \"soak_requests\": %zu,\n"
               "  \"soak_p50_ms\": %.1f,\n"
               "  \"soak_p99_ms\": %.1f,\n"
               "  \"soak_requeue_rate\": %.3f,\n"
               "  \"soak_failures\": %zu,\n"
               "  \"server_requests\": %llu,\n"
               "  \"server_bytes_out\": %llu,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"corpus_files\": %zu,\n"
               "  \"corpus_MB\": %.2f\n"
               "}\n"
               "]\n",
               soak_requests, soak_p50_ms, soak_p99_ms,
               soak_requests
                   ? static_cast<double>(soak_requeues) / soak_requests
                   : 0.0,
               soak_failures,
               static_cast<unsigned long long>(stats.requests +
                                               tstats.requests),
               static_cast<unsigned long long>(stats.bytes_out +
                                               tstats.bytes_out),
               bench::hardware_concurrency(), files.size(), mb);
  std::fclose(out);
  std::printf("\nwrote %s (trajectory entry pr=%d bench=server, %zu prior "
              "entries kept)\n",
              out_path.c_str(), pr, entries.size());
  srv.stop();
  tcp_srv.stop();
  return 0;
}

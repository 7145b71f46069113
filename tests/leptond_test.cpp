// Daemon plane tests (the tentpole contracts of the leptond subsystem).
//
// Four layers: (1) the transport seam — endpoint strings parse/round-trip
// and both transports speak the same bytes (a TCP conversation is
// byte-identical to the AF_UNIX one and to the in-process codec); (2) the
// event plane's scaling property — a thousand idle keep-alive connections
// hold zero threads beyond the fixed pool while a live request still
// converts; (3) the hostile-client semantics over TCP (deadline trailers,
// admission bounds, slow-loris wall budget, garbage/oversize/version
// rejection); (4) the operator surface — STATS text, daemon config
// parsing, EMFILE accept survival, and health-checked FleetClient requeue
// over real TCP daemons.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus.h"
#include "lepton/format.h"
#include "lepton/lepton.h"
#include "leptond/config.h"
#include "leptond/event_server.h"
#include "server/client.h"
#include "server/endpoint.h"
#include "server/protocol.h"
#include "storage/fleet_client.h"
#include "util/failpoint.h"

namespace {

using lepton::leptond::EventServer;
using lepton::leptond::EventServerConfig;
using lepton::server::Endpoint;
using lepton::server::FrameType;
using lepton::server::LeptonClient;
using lepton::server::ShutoffOp;
using lepton::storage::FleetClient;
using lepton::storage::FleetClientConfig;
using lepton::storage::FleetOp;
using lepton::util::ExitCode;

std::string unique_sock(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/lepton_dtest_" + std::to_string(::getpid()) + "_" + tag +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

EventServer make_tcp_server(lepton::CodecContext* ctx,
                            int workers = 2) {
  EventServerConfig ec;
  ec.listen = "tcp:127.0.0.1:0";
  ec.workers = workers;
  return EventServer(std::move(ec), ctx);
}

template <typename Pred>
bool eventually(Pred pred, int seconds = 2) {
  auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  for (;;) {
    if (pred()) return true;
    if (std::chrono::steady_clock::now() >= until) return pred();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Current thread count of this process (reads /proc/self/status).
int process_threads() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

// ---- raw TCP hostile client -------------------------------------------------

int raw_tcp_connect(const std::string& endpoint) {
  std::string err;
  lepton::server::Endpoint ep;
  if (!lepton::server::parse_endpoint(endpoint, &ep, &err)) return -1;
  return lepton::server::connect_endpoint(ep, &err);
}

bool raw_send(int fd, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  while (n > 0) {
    ssize_t w = ::send(fd, b, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    b += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool raw_read_exact(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void raw_open_frame(int fd, FrameType type, std::uint32_t deadline_ms = 0,
                    std::uint8_t version = lepton::server::kProtocolVersion) {
  std::uint8_t buf[lepton::server::kFrameHeaderSize +
                   lepton::server::kOpenPayloadSize];
  lepton::server::write_frame_header(
      buf, {type, 0, lepton::server::kOpenPayloadSize});
  lepton::server::OpenPayload open;
  open.version = version;
  open.deadline_ms = deadline_ms;
  lepton::server::write_open_payload(buf + lepton::server::kFrameHeaderSize,
                                     open);
  ASSERT_TRUE(raw_send(fd, buf, sizeof buf));
}

lepton::server::TrailerPayload raw_read_trailer(int fd) {
  lepton::server::TrailerPayload t;
  for (;;) {
    std::uint8_t hdr[lepton::server::kFrameHeaderSize];
    if (!raw_read_exact(fd, hdr, sizeof hdr)) {
      ADD_FAILURE() << "connection closed before trailer";
      return t;
    }
    lepton::server::FrameHeader fh;
    if (!lepton::server::parse_frame_header(hdr, &fh)) {
      ADD_FAILURE() << "bad response frame";
      return t;
    }
    std::vector<std::uint8_t> payload(fh.length);
    if (fh.length > 0 && !raw_read_exact(fd, payload.data(), fh.length)) {
      ADD_FAILURE() << "truncated response payload";
      return t;
    }
    if (fh.type == FrameType::kTrailer) {
      EXPECT_TRUE(lepton::server::parse_trailer_payload(payload.data(),
                                                        payload.size(), &t));
      return t;
    }
    if (fh.type != FrameType::kData) {
      ADD_FAILURE() << "unexpected response frame type";
      return t;
    }
  }
}

// ---- endpoint parsing -------------------------------------------------------

TEST(Endpoint, ParsesUnixTcpAndBarePaths) {
  Endpoint ep;
  std::string err;
  ASSERT_TRUE(lepton::server::parse_endpoint("unix:/run/l.sock", &ep, &err));
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/run/l.sock");

  ASSERT_TRUE(lepton::server::parse_endpoint("/tmp/bare.sock", &ep, &err));
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/bare.sock");

  ASSERT_TRUE(lepton::server::parse_endpoint("tcp:127.0.0.1:2929", &ep, &err));
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, "2929");

  ASSERT_TRUE(lepton::server::parse_endpoint("tcp:[::1]:80", &ep, &err));
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.host, "::1");
  EXPECT_EQ(ep.port, "80");

  EXPECT_FALSE(lepton::server::parse_endpoint("tcp:nohost", &ep, &err));
  EXPECT_FALSE(lepton::server::parse_endpoint("tcp::5", &ep, &err));
  EXPECT_FALSE(lepton::server::parse_endpoint("tcp:h:", &ep, &err));
  EXPECT_FALSE(lepton::server::parse_endpoint("", &ep, &err));
  EXPECT_FALSE(lepton::server::parse_endpoint("unix:", &ep, &err));
}

TEST(Endpoint, ListenBindsEphemeralPortAndReportsIt) {
  Endpoint ep;
  std::string err, bound;
  ASSERT_TRUE(lepton::server::parse_endpoint("tcp:127.0.0.1:0", &ep, &err));
  int fd = lepton::server::listen_endpoint(ep, &err, &bound);
  ASSERT_GE(fd, 0) << err;
  EXPECT_EQ(bound.rfind("tcp:127.0.0.1:", 0), 0u) << bound;
  EXPECT_NE(bound, "tcp:127.0.0.1:0") << "real port must be read back";
  ::close(fd);
}

// ---- daemon config ----------------------------------------------------------

TEST(DaemonConfig, FlagsAndConfigFileCompose) {
  namespace ld = lepton::leptond;
  std::string path = ::testing::TempDir() + "leptond_cfg_test";
  {
    std::ofstream f(path, std::ios::trunc);
    f << "# fleet defaults\n"
      << "listen tcp:0.0.0.0:4000\n"
      << "workers = 8\n"
      << "idle-timeout-ms 5000\n";
  }
  ld::DaemonConfig cfg;
  std::string err;
  bool help = false;
  // Flags override the file; --config position does not matter.
  ASSERT_TRUE(ld::parse_args({"--workers=2", "--config", path}, &cfg, &err,
                             &help))
      << err;
  EXPECT_FALSE(help);
  EXPECT_EQ(cfg.listen, "tcp:0.0.0.0:4000");
  EXPECT_EQ(cfg.workers, 2) << "flag must override the config file";
  EXPECT_EQ(cfg.idle_timeout_ms, 5000u);
  ::unlink(path.c_str());

  cfg = {};
  EXPECT_FALSE(ld::parse_args({"--workers", "0"}, &cfg, &err, &help));
  EXPECT_FALSE(ld::parse_args({"--no-such-flag", "1"}, &cfg, &err, &help));
  EXPECT_TRUE(ld::parse_args({"--help"}, &cfg, &err, &help));
  EXPECT_TRUE(help);

  cfg = {};
  EXPECT_FALSE(ld::parse_config_text("listen\n", &cfg, &err));
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

// The daemon keeps no decoded-output cache (every DECODE streams; the
// content-addressed cache lives in the storage plane), so a stale config
// that still sizes one must fail loudly rather than be ignored.
TEST(DaemonConfig, RetiredDecodeCacheOptionIsRejected) {
  namespace ld = lepton::leptond;
  ld::DaemonConfig cfg;
  std::string err;
  bool help = false;
  EXPECT_FALSE(ld::parse_args({"--decode-cache-mb", "4"}, &cfg, &err, &help));
  EXPECT_NE(err.find("unknown option 'decode-cache-mb'"), std::string::npos)
      << err;

  cfg = {};
  err.clear();
  EXPECT_FALSE(ld::parse_config_text("decode-cache-mb 4\n", &cfg, &err));
  EXPECT_NE(err.find("line 1: unknown option 'decode-cache-mb'"),
            std::string::npos)
      << err;
  EXPECT_EQ(ld::usage_text().find("cache"), std::string::npos)
      << ld::usage_text();
}

// The event plane's worker pool is the daemon's one concurrency bound, so
// the retired admission and codec-pool knobs must fail loudly rather than
// be ignored by a stale config.
TEST(DaemonConfig, RetiredConcurrencyOptionsAreRejected) {
  namespace ld = lepton::leptond;
  for (const char* key : {"max-in-flight", "codec-threads"}) {
    ld::DaemonConfig cfg;
    std::string err;
    bool help = false;
    EXPECT_FALSE(ld::parse_args({std::string("--") + key, "4"}, &cfg, &err,
                                &help));
    EXPECT_NE(err.find(std::string("unknown option '") + key + "'"),
              std::string::npos)
        << err;

    cfg = {};
    err.clear();
    EXPECT_FALSE(
        ld::parse_config_text(std::string(key) + " = 4\n", &cfg, &err));
    EXPECT_NE(err.find(std::string("line 1: unknown option '") + key + "'"),
              std::string::npos)
        << err;
    EXPECT_EQ(ld::usage_text().find(key), std::string::npos)
        << ld::usage_text();
  }
}

// workers has a ceiling: the pool spawns every worker up front, so a
// mistyped value must be refused at parse time, not exhaust the box.
TEST(DaemonConfig, WorkersCeilingIsEnforced) {
  namespace ld = lepton::leptond;
  ld::DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(ld::apply_option(&cfg, "workers",
                               std::to_string(ld::kMaxWorkers), &err))
      << err;
  EXPECT_EQ(cfg.workers, ld::kMaxWorkers);

  for (const std::string& value :
       {std::to_string(ld::kMaxWorkers + 1), std::string("0")}) {
    cfg = {};
    EXPECT_FALSE(ld::apply_option(&cfg, "workers", value, &err)) << value;
    EXPECT_NE(err.find("bad value"), std::string::npos) << err;
    EXPECT_EQ(cfg.workers, ld::DaemonConfig{}.workers)
        << "a rejected value must leave the setting untouched";
  }
}

// The plane enforces the same ceiling for embedders that skip the config
// layer, before it binds or starts a single thread.
TEST(LeptondTest, EventServerRefusesWorkersAboveCeiling) {
  namespace ld = lepton::leptond;
  lepton::CodecContext ctx(0);
  EventServerConfig ec;
  ec.listen = "tcp:127.0.0.1:0";
  ec.workers = ld::kMaxWorkers + 1;
  EventServer srv(std::move(ec), &ctx);
  const int threads_before = process_threads();
  EXPECT_FALSE(srv.start());
  EXPECT_FALSE(srv.running());
  EXPECT_NE(srv.last_error().find("ceiling"), std::string::npos)
      << srv.last_error();
  EXPECT_TRUE(srv.bound_address().empty()) << "refused before binding";
  EXPECT_EQ(process_threads(), threads_before);
}

// A number past 2^64 is rejected, never wrapped ("workers
// 18446744073709551618" must not run 2 workers), and the idle window has a
// ceiling: past 2^63 ms it goes negative as std::chrono::milliseconds and
// every body read would time out.
TEST(DaemonConfig, OverflowingValuesAreRejected) {
  namespace ld = lepton::leptond;
  const std::pair<const char*, const char*> rejected[] = {
      {"workers", "18446744073709551618"},
      {"max-body-bytes", "18446744073709551617"},
      {"idle-timeout-ms", "18446744073709551617"},
      {"idle-timeout-ms", "9223372036854775808"},
      {"idle-timeout-ms", "86400001"},  // one past the one-day ceiling
  };
  for (const auto& [key, value] : rejected) {
    ld::DaemonConfig cfg;
    std::string err;
    EXPECT_FALSE(ld::apply_option(&cfg, key, value, &err))
        << key << " " << value;
    EXPECT_NE(err.find("bad value"), std::string::npos) << err;
    EXPECT_EQ(cfg.workers, ld::DaemonConfig{}.workers);
    EXPECT_EQ(cfg.max_body_bytes, ld::DaemonConfig{}.max_body_bytes);
    EXPECT_EQ(cfg.idle_timeout_ms, ld::DaemonConfig{}.idle_timeout_ms);
  }

  ld::DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(ld::apply_option(&cfg, "max-body-bytes",
                               "18446744073709551615", &err))
      << err;
  EXPECT_EQ(cfg.max_body_bytes, UINT64_MAX);
  ASSERT_TRUE(ld::apply_option(&cfg, "idle-timeout-ms", "86400000", &err))
      << err;
  EXPECT_EQ(cfg.idle_timeout_ms, ld::kMaxIdleTimeoutMs);
}

// Regression: a daemon killed uncleanly (SIGKILL/OOM) leaves its pidfile
// behind; the replacement must reclaim it. Refusal is reserved for a file
// whose recorded owner is actually alive.
TEST(DaemonConfig, StalePidfileIsReclaimedLiveOwnerRefuses) {
  namespace ld = lepton::leptond;
  std::string path = ::testing::TempDir() + "leptond_pid_test_" +
                     std::to_string(::getpid());
  ::unlink(path.c_str());
  std::string err;

  // Absent: free to take; the file then records this process.
  EXPECT_EQ(ld::inspect_pidfile(path, nullptr), ld::PidfileState::kAbsent);
  ASSERT_TRUE(ld::acquire_pidfile(path, &err)) << err;
  {
    std::ifstream f(path);
    long pid = 0;
    ASSERT_TRUE(static_cast<bool>(f >> pid));
    EXPECT_EQ(pid, static_cast<long>(::getpid()));
  }

  // Our own pid is a live owner: a second daemon must refuse, naming it.
  long owner = 0;
  EXPECT_EQ(ld::inspect_pidfile(path, &owner),
            ld::PidfileState::kOwnerAlive);
  EXPECT_EQ(owner, static_cast<long>(::getpid()));
  EXPECT_FALSE(ld::acquire_pidfile(path, &err));
  EXPECT_NE(err.find(std::to_string(::getpid())), std::string::npos) << err;

  // A dead owner's leftover file is stale: forked child, exited and reaped.
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int st = 0;
  ASSERT_EQ(::waitpid(child, &st, 0), child);
  {
    std::ofstream f(path, std::ios::trunc);
    f << child << "\n";
  }
  EXPECT_EQ(ld::inspect_pidfile(path, nullptr), ld::PidfileState::kStale);
  ASSERT_TRUE(ld::acquire_pidfile(path, &err)) << err;

  // Garbage contents are stale too — never a lockout.
  {
    std::ofstream f(path, std::ios::trunc);
    f << "not-a-pid\n";
  }
  EXPECT_EQ(ld::inspect_pidfile(path, nullptr), ld::PidfileState::kStale);
  ASSERT_TRUE(ld::acquire_pidfile(path, &err)) << err;
  ::unlink(path.c_str());
}

// Regression for the crash-atomic pidfile write (temp + rename via
// util/fileio): a write that dies partway — injected torn fs.write — must
// fail the acquire AND leave the existing pidfile byte-intact. The old
// ofstream-truncate path failed this: the truncate happened before the
// torn write, so a crash left a garbage (or empty) pidfile that a later
// inspect_pidfile() read as stale-or-worse.
TEST(DaemonConfig, PidfileWriteIsCrashAtomicUnderTornWrite) {
  namespace ld = lepton::leptond;
  namespace fp = lepton::util::failpoint;
  std::string path = ::testing::TempDir() + "leptond_pid_atomic_" +
                     std::to_string(::getpid());
  ::unlink(path.c_str());
  std::string err;

  // Seed the file with a dead owner so there is prior content to protect.
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int st = 0;
  ASSERT_EQ(::waitpid(child, &st, 0), child);
  std::string prior = std::to_string(child) + "\n";
  {
    std::ofstream f(path, std::ios::trunc);
    f << prior;
  }

  ASSERT_TRUE(fp::arm("seed=3;fs.write=short@once", &err)) << err;
  EXPECT_FALSE(ld::acquire_pidfile(path, &err));
  fp::disarm();

  // The stale file is untouched — not truncated, not half-overwritten.
  {
    std::ifstream f(path);
    std::string contents((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(contents, prior);
  }
  // And no temp litter next to it.
  EXPECT_NE(::access((path + ".tmp." + std::to_string(::getpid())).c_str(),
                     F_OK),
            0);

  // With the fault cleared the same acquire succeeds atomically.
  ASSERT_TRUE(ld::acquire_pidfile(path, &err)) << err;
  {
    std::ifstream f(path);
    long pid = 0;
    ASSERT_TRUE(static_cast<bool>(f >> pid));
    EXPECT_EQ(pid, static_cast<long>(::getpid()));
  }
  ::unlink(path.c_str());
}

// ---- cross-transport byte identity ------------------------------------------

TEST(LeptondTest, TcpRoundTripByteIdenticalAcrossTransports) {
  lepton::CodecContext ctx(4);

  // The same conversation over three serving stacks: in-process one-shot,
  // the event plane on AF_UNIX, the event plane on TCP. One wire format,
  // one service path — every container and every decoded JPEG
  // byte-identical.
  auto jpeg = lepton::corpus::jpeg_of_size(60 << 10, 42);
  auto one_shot = ctx.encode({jpeg.data(), jpeg.size()});
  ASSERT_TRUE(one_shot.ok());

  EventServerConfig uc;
  uc.listen = "unix:" + unique_sock("xt");
  uc.workers = 2;
  EventServer unix_srv(std::move(uc), &ctx);
  ASSERT_TRUE(unix_srv.start()) << unix_srv.last_error();

  EventServer tcp_srv = make_tcp_server(&ctx);
  ASSERT_TRUE(tcp_srv.start()) << tcp_srv.last_error();

  auto unix_cli = LeptonClient::connect(unix_srv.bound_address());
  ASSERT_TRUE(unix_cli.ok()) << unix_cli.message();
  auto tcp_cli = LeptonClient::connect(tcp_srv.bound_address());
  ASSERT_TRUE(tcp_cli.ok()) << tcp_cli.message();

  auto ue = unix_cli.encode({jpeg.data(), jpeg.size()});
  auto te = tcp_cli.encode({jpeg.data(), jpeg.size()});
  ASSERT_TRUE(ue.ok()) << ue.message;
  ASSERT_TRUE(te.ok()) << te.message;
  EXPECT_EQ(ue.data, one_shot.data);
  EXPECT_EQ(te.data, one_shot.data)
      << "TCP and AF_UNIX must serve byte-identical containers";
  EXPECT_EQ(te.server_bytes_in, jpeg.size());
  EXPECT_EQ(te.server_bytes_out, te.data.size());

  // Keep-alive on both transports: decode on the same connections.
  auto ud = unix_cli.decode({ue.data.data(), ue.data.size()});
  auto td = tcp_cli.decode({te.data.data(), te.data.size()});
  ASSERT_TRUE(ud.ok()) << ud.message;
  ASSERT_TRUE(td.ok()) << td.message;
  EXPECT_EQ(ud.data, jpeg);
  EXPECT_EQ(td.data, jpeg);

  unix_srv.stop();
  tcp_srv.stop();
  EXPECT_FALSE(tcp_srv.running());
}

// Every DECODE streams (§3.4): the service feeds each DATA frame to the
// session as it arrives, so output leaves the daemon before the body ends.
// The client holds back the container's last 4 KiB and END until a
// response DATA frame has arrived, then completes the request.
TEST(LeptondTest, DecodeStreamsOutputBeforeEnd) {
  lepton::CodecContext ctx(4);
  EventServer srv = make_tcp_server(&ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  auto jpeg = lepton::corpus::jpeg_of_size(96 << 10, 1018);
  lepton::EncodeOptions eopt;
  eopt.force_threads = 4;
  auto enc = lepton::encode_jpeg({jpeg.data(), jpeg.size()}, eopt);
  ASSERT_TRUE(enc.ok()) << enc.message;
  ASSERT_EQ(lepton::core::parse_container({enc.data.data(), enc.data.size()})
                .header.segments.size(),
            4u);
  constexpr std::size_t kHeldBack = 4096;
  ASSERT_GT(enc.data.size(), 2 * kHeldBack);

  int fd = raw_tcp_connect(srv.bound_address());
  ASSERT_GE(fd, 0);
  raw_open_frame(fd, FrameType::kDecode);
  // The response is read on its own thread, so neither side ever blocks on
  // a full socket buffer while the other is writing.
  std::atomic<bool> saw_data{false};
  std::vector<std::uint8_t> out;
  lepton::server::TrailerPayload trailer;
  bool got_trailer = false;
  std::thread reader([&] {
    for (;;) {
      std::uint8_t hdr[lepton::server::kFrameHeaderSize];
      lepton::server::FrameHeader fh;
      if (!raw_read_exact(fd, hdr, sizeof hdr) ||
          !lepton::server::parse_frame_header(hdr, &fh)) {
        return;
      }
      std::vector<std::uint8_t> payload(fh.length);
      if (fh.length > 0 && !raw_read_exact(fd, payload.data(), fh.length)) {
        return;
      }
      if (fh.type == FrameType::kTrailer) {
        got_trailer = lepton::server::parse_trailer_payload(
            payload.data(), payload.size(), &trailer);
        return;
      }
      if (fh.type != FrameType::kData) return;
      out.insert(out.end(), payload.begin(), payload.end());
      saw_data.store(true);
    }
  });

  auto send_data = [&](std::size_t off, std::size_t n) {
    std::uint8_t hdr[lepton::server::kFrameHeaderSize];
    lepton::server::write_frame_header(
        hdr, {FrameType::kData, 0, static_cast<std::uint32_t>(n)});
    return raw_send(fd, hdr, sizeof hdr) &&
           raw_send(fd, enc.data.data() + off, n);
  };
  const std::size_t early = enc.data.size() - kHeldBack;
  constexpr std::size_t kSlice = 8192;
  bool sent = true;
  for (std::size_t off = 0; sent && off < early; off += kSlice) {
    sent = send_data(off, std::min(kSlice, early - off));
  }
  EXPECT_TRUE(sent);
  EXPECT_TRUE(eventually([&] { return saw_data.load(); }, 10))
      << "no response DATA before the body ended";

  std::uint8_t end[lepton::server::kFrameHeaderSize];
  lepton::server::write_frame_header(end, {FrameType::kEnd, 0, 0});
  sent = sent && send_data(early, kHeldBack) && raw_send(fd, end, sizeof end);
  EXPECT_TRUE(sent);
  if (!sent) ::shutdown(fd, SHUT_RDWR);  // unblock the reader
  reader.join();
  ::close(fd);

  ASSERT_TRUE(got_trailer);
  EXPECT_EQ(trailer.exit_code, static_cast<std::uint8_t>(ExitCode::kSuccess));
  EXPECT_EQ(trailer.bytes_in, enc.data.size());
  EXPECT_EQ(out, jpeg) << "streamed DECODE must be byte-identical";
  srv.stop();
}

// ---- connection scaling (the event plane's reason to exist) -----------------

TEST(LeptondTest, ThousandIdleConnectionsHoldNoExtraThreads) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_tcp_server(&ctx, /*workers=*/2);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  // Warm every lazy pool (codec threads spin up on first use) so the
  // baseline thread count is the steady state.
  auto jpeg = lepton::corpus::jpeg_of_size(40 << 10, 11);
  {
    auto cli = LeptonClient::connect(srv.bound_address());
    ASSERT_TRUE(cli.ok());
    ASSERT_TRUE(cli.encode({jpeg.data(), jpeg.size()}).ok());
  }
  int baseline = process_threads();
  ASSERT_GT(baseline, 0);

  // A thousand idle keep-alive connections...
  constexpr int kIdle = 1000;
  std::vector<int> idle;
  idle.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    int fd = raw_tcp_connect(srv.bound_address());
    ASSERT_GE(fd, 0) << "connect " << i;
    idle.push_back(fd);
  }
  ASSERT_TRUE(eventually(
      [&] { return srv.open_connections() >= kIdle; }, 10))
      << "loop accepted " << srv.open_connections() << "/" << kIdle;

  // ...cost zero threads: connections live in the epoll set, not on
  // stacks. (Thread-per-connection pricing would add ~1000 here.)
  EXPECT_EQ(process_threads(), baseline)
      << "idle connections must not spawn threads";

  // And the plane still converts under the idle load, promptly.
  auto t0 = std::chrono::steady_clock::now();
  auto cli = LeptonClient::connect(srv.bound_address());
  ASSERT_TRUE(cli.ok()) << cli.message();
  auto r = cli.encode({jpeg.data(), jpeg.size()});
  double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_LT(took, 10.0) << "request latency must not scale with idle conns";

  for (int fd : idle) ::close(fd);
  srv.stop();
}

// ---- hostile-client semantics over TCP ----------------------------------------

TEST(LeptondTest, EventPlaneDeadlineExpiryReturnsTimeoutTrailer) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_tcp_server(&ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  auto jpeg = lepton::corpus::jpeg_of_size(300 << 10, 77);
  auto cli = LeptonClient::connect(srv.bound_address());
  ASSERT_TRUE(cli.ok());
  lepton::server::RequestOptions opts;
  opts.deadline = std::chrono::milliseconds(1);
  auto r = cli.encode({jpeg.data(), jpeg.size()}, opts);
  ASSERT_TRUE(r.transport_ok) << r.message;
  EXPECT_EQ(r.code, ExitCode::kTimeout);
  EXPECT_TRUE(r.data.empty());
  srv.stop();
}

TEST(LeptondTest, EventPlaneAdmissionBoundsInFlight) {
  // The worker pool is the one concurrency bound: with one worker, the
  // other requests wait in the job queue with their bodies unread.
  lepton::CodecContext ctx(4);
  EventServerConfig ec;
  ec.listen = "tcp:127.0.0.1:0";
  ec.workers = 1;
  EventServer srv(std::move(ec), &ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  auto jpeg = lepton::corpus::jpeg_of_size(120 << 10, 5);
  std::atomic<int> ok{0};
  auto worker = [&] {
    auto cli = LeptonClient::connect(srv.bound_address());
    ASSERT_TRUE(cli.ok());
    if (cli.encode({jpeg.data(), jpeg.size()}).ok()) ok.fetch_add(1);
  };
  std::thread a(worker), b(worker), c(worker);
  a.join();
  b.join();
  c.join();

  EXPECT_EQ(ok.load(), 3) << "queued requests must be served, not dropped";
  auto s = srv.stats();
  EXPECT_EQ(s.in_flight_peak, 1) << "worker bound violated";
  EXPECT_EQ(s.requests, 3u);
  srv.stop();
}

TEST(LeptondTest, EventPlaneDribbledBodyCutOffAtWallBudget) {
  lepton::CodecContext ctx(2);
  EventServerConfig ec;
  ec.listen = "tcp:127.0.0.1:0";
  ec.workers = 2;
  ec.service.idle_read_timeout = std::chrono::milliseconds(400);
  EventServer srv(std::move(ec), &ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  // Body dribbler: holds a worker, but only up to the wall budget — the
  // slow-loris defense lives in the service's body reads.
  int fd = raw_tcp_connect(srv.bound_address());
  ASSERT_GE(fd, 0);
  raw_open_frame(fd, FrameType::kEncode);
  std::uint8_t hdr[lepton::server::kFrameHeaderSize];
  lepton::server::write_frame_header(hdr, {FrameType::kData, 0, 1000});
  ASSERT_TRUE(raw_send(fd, hdr, sizeof hdr));

  std::atomic<bool> stop_dribble{false};
  std::thread dribbler([&] {
    std::uint8_t b = 0xFF;
    while (!stop_dribble.load()) {
      if (!raw_send(fd, &b, 1)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  auto t0 = std::chrono::steady_clock::now();
  auto t = raw_read_trailer(fd);
  double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(t.exit_code, static_cast<std::uint8_t>(ExitCode::kTimeout));
  EXPECT_LT(waited, 2.0) << "body budget must be wall-clock, not per-read";
  stop_dribble.store(true);
  dribbler.join();
  ::close(fd);
  EXPECT_TRUE(eventually([&] { return srv.stats().in_flight == 0; }));
  srv.stop();
}

TEST(LeptondTest, EventPlaneHeaderDribblerIsSweptNotServed) {
  // A client dribbling the *open frame* never reaches a worker: it costs
  // the loop a 72-byte buffer until the idle sweep reaps it.
  lepton::CodecContext ctx(2);
  EventServerConfig ec;
  ec.listen = "tcp:127.0.0.1:0";
  ec.workers = 1;
  ec.service.idle_read_timeout = std::chrono::milliseconds(400);
  EventServer srv(std::move(ec), &ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  int fd = raw_tcp_connect(srv.bound_address());
  ASSERT_GE(fd, 0);
  std::uint8_t half[4] = {0x01, 0x00, 0x00, 0x00};
  ASSERT_TRUE(raw_send(fd, half, sizeof half));

  // While the dribbler squats, the single worker must remain free.
  auto jpeg = lepton::corpus::jpeg_of_size(30 << 10, 3);
  auto cli = LeptonClient::connect(srv.bound_address());
  ASSERT_TRUE(cli.ok());
  EXPECT_TRUE(cli.encode({jpeg.data(), jpeg.size()}).ok())
      << "a header dribbler must not hold the worker pool";

  // The sweep closes the dribbler at the idle window; recv sees EOF.
  std::uint8_t b;
  ASSERT_TRUE(eventually(
      [&] { return ::recv(fd, &b, 1, MSG_DONTWAIT) == 0; }, 3))
      << "idle sweep must close the half-open connection";
  ::close(fd);
  srv.stop();
}

TEST(LeptondTest, EventPlaneRejectsGarbageOversizeAndVersionMismatch) {
  lepton::CodecContext ctx(2);
  EventServerConfig ec;
  ec.listen = "tcp:127.0.0.1:0";
  ec.workers = 2;
  ec.service.max_body_bytes = 1 << 10;
  EventServer srv(std::move(ec), &ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  // Garbage frame type: kImpossible trailer, then close.
  int fd = raw_tcp_connect(srv.bound_address());
  ASSERT_GE(fd, 0);
  std::uint8_t bad[lepton::server::kFrameHeaderSize] = {0x77, 0, 0, 0,
                                                        0,    0, 0, 0};
  ASSERT_TRUE(raw_send(fd, bad, sizeof bad));
  auto t = raw_read_trailer(fd);
  EXPECT_EQ(t.exit_code, static_cast<std::uint8_t>(ExitCode::kImpossible));
  ::close(fd);

  // Version from the future: kImpossible.
  fd = raw_tcp_connect(srv.bound_address());
  ASSERT_GE(fd, 0);
  raw_open_frame(fd, FrameType::kEncode, 0, /*version=*/9);
  t = raw_read_trailer(fd);
  EXPECT_EQ(t.exit_code, static_cast<std::uint8_t>(ExitCode::kImpossible));
  ::close(fd);

  // Body over the request cap: §6.2 memory code before any allocation.
  fd = raw_tcp_connect(srv.bound_address());
  ASSERT_GE(fd, 0);
  raw_open_frame(fd, FrameType::kDecode);
  std::uint8_t hdr[lepton::server::kFrameHeaderSize];
  lepton::server::write_frame_header(hdr, {FrameType::kData, 0, 2 << 10});
  ASSERT_TRUE(raw_send(fd, hdr, sizeof hdr));
  t = raw_read_trailer(fd);
  EXPECT_EQ(t.exit_code, static_cast<std::uint8_t>(ExitCode::kMemLimitDecode));
  ::close(fd);

  // Mid-header truncation: counted, no trailer owed.
  fd = raw_tcp_connect(srv.bound_address());
  ASSERT_GE(fd, 0);
  std::uint8_t partial[3] = {0x01, 0x00, 0x00};
  ASSERT_TRUE(raw_send(fd, partial, sizeof partial));
  ::close(fd);

  EXPECT_TRUE(eventually([&] { return srv.stats().protocol_errors >= 2; }));
  EXPECT_TRUE(eventually([&] { return srv.stats().oversized_rejects >= 1; }));
  EXPECT_TRUE(eventually([&] {
    return srv.stats().trailer_codes.count(
               static_cast<unsigned>(ExitCode::kShortRead)) >= 1;
  }));
  srv.stop();
}

TEST(LeptondTest, EventPlaneKillSwitchRefusesEncodesServesDecodes) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_tcp_server(&ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  auto jpeg = lepton::corpus::jpeg_of_size(30 << 10, 8);
  auto cli = LeptonClient::connect(srv.bound_address());
  ASSERT_TRUE(cli.ok());
  auto lep = cli.encode({jpeg.data(), jpeg.size()});
  ASSERT_TRUE(lep.ok());

  auto c2 = LeptonClient::connect(srv.bound_address());
  auto r = c2.shutoff(ShutoffOp::kEngage);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.shutoff_engaged);

  auto c3 = LeptonClient::connect(srv.bound_address());
  auto refused = c3.encode({jpeg.data(), jpeg.size()});
  ASSERT_TRUE(refused.transport_ok);
  EXPECT_EQ(refused.code, ExitCode::kServerShutdown);

  auto c4 = LeptonClient::connect(srv.bound_address());
  auto dec = c4.decode({lep.data.data(), lep.data.size()});
  ASSERT_TRUE(dec.ok()) << "decode must survive the kill-switch";
  EXPECT_EQ(dec.data, jpeg);
  srv.stop();
}

// ---- operator surface -------------------------------------------------------

TEST(LeptondTest, StatsFrameReportsCountersAndPlane) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_tcp_server(&ctx, /*workers=*/3);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  auto jpeg = lepton::corpus::jpeg_of_size(30 << 10, 4);
  auto cli = LeptonClient::connect(srv.bound_address());
  ASSERT_TRUE(cli.ok());
  ASSERT_TRUE(cli.encode({jpeg.data(), jpeg.size()}).ok());

  auto r = cli.stats();
  ASSERT_TRUE(r.ok()) << r.message;
  std::string text(r.data.begin(), r.data.end());
  for (const char* key :
       {"stats_version 1", "requests 1", "in_flight 0", "trailer_code_0",
        "plane event", "workers 3", "open_fds", "accept_retries 0",
        "ttfb_p50_ms", "request_p99_ms"}) {
    EXPECT_NE(text.find(key), std::string::npos)
        << "STATS text missing \"" << key << "\":\n"
        << text;
  }

  // STATS is not a conversion: the request counter must not move, and the
  // connection survives for the next request (trailer was kSuccess).
  auto again = cli.stats();
  ASSERT_TRUE(again.ok());
  std::string text2(again.data.begin(), again.data.end());
  EXPECT_NE(text2.find("requests 1"), std::string::npos) << text2;

  srv.stop();
}

// The accept loop must survive fd exhaustion: back off and retry, not die.
TEST(LeptondTest, EventPlaneAcceptSurvivesFdExhaustion) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_tcp_server(&ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();
  const std::string endpoint = srv.bound_address();

  // Pre-open client sockets while fds are still available; the connects
  // complete in the kernel (listen backlog) without server accepts.
  std::vector<int> clients;
  for (int i = 0; i < 4; ++i) {
    int fd = raw_tcp_connect(endpoint);
    ASSERT_GE(fd, 0);
    clients.push_back(fd);
  }

  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
  rlimit tight = old;
  tight.rlim_cur =
      static_cast<rlim_t>(lepton::server::count_open_fds() + 3);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);

  // More connects: the kernel queues them, the server's accept() runs out
  // of fds. The accept loop must log retries and back off — not die.
  for (int i = 0; i < 3; ++i) {
    int fd = raw_tcp_connect(endpoint);
    if (fd >= 0) clients.push_back(fd);  // our own socket() may EMFILE too
  }
  bool saw_retry =
      eventually([&] { return srv.stats().accept_retries >= 1; }, 5);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old), 0);
  EXPECT_TRUE(saw_retry) << "accept loop must count EMFILE retries";
  for (int fd : clients) ::close(fd);

  // With fds back, the same listener must accept and serve again.
  EXPECT_TRUE(eventually(
      [&] {
        auto cli = LeptonClient::connect(endpoint);
        return cli.ok() && cli.ping().ok();
      },
      5))
      << "accept loop must recover after fd pressure lifts";
  srv.stop();
}

// ---- transport failures + fleet --------------------------------------------

// A mini-server that accepts, reads a little, then RSTs the connection
// (SO_LINGER zero + close), so the client's recv sees ECONNRESET.
struct RstServer {
  int listen_fd = -1;
  std::string endpoint;
  std::thread th;

  bool start() {
    Endpoint ep;
    std::string err;
    if (!lepton::server::parse_endpoint("tcp:127.0.0.1:0", &ep, &err)) {
      return false;
    }
    listen_fd = lepton::server::listen_endpoint(ep, &err, &endpoint);
    if (listen_fd < 0) return false;
    // The thread owns a copy of the fd: stop() resets listen_fd.
    th = std::thread([lfd = listen_fd] {
      for (;;) {
        int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) return;  // listener shut down
        std::uint8_t buf[64];
        (void)::recv(fd, buf, sizeof buf, 0);
        linger lg{1, 0};  // close() sends RST, not FIN
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
        ::close(fd);
      }
    });
    return true;
  }
  void stop() {
    if (listen_fd < 0) return;
    ::shutdown(listen_fd, SHUT_RDWR);  // wakes the blocked accept()
    if (th.joinable()) th.join();
    ::close(listen_fd);
    listen_fd = -1;
  }
  ~RstServer() { stop(); }
};

TEST(LeptondTest, ConnectionResetIsTransportFailureNotProtocolViolation) {
  RstServer rst;
  ASSERT_TRUE(rst.start());

  auto jpeg = lepton::corpus::jpeg_of_size(30 << 10, 21);
  auto cli = LeptonClient::connect(rst.endpoint);
  ASSERT_TRUE(cli.ok()) << cli.message();
  auto r = cli.encode({jpeg.data(), jpeg.size()});
  EXPECT_FALSE(r.transport_ok);
  EXPECT_EQ(r.code, ExitCode::kShortRead)
      << "ECONNRESET classifies as transport failure (like a timeout), "
         "not kImpossible";
  EXPECT_NE(r.message.find("reset"), std::string::npos) << r.message;
  rst.stop();
}

TEST(LeptondTest, FleetRequeuesConnectionResetToSecondServer) {
  lepton::CodecContext ctx(2);
  EventServer good = make_tcp_server(&ctx);
  ASSERT_TRUE(good.start()) << good.last_error();
  RstServer rst;
  ASSERT_TRUE(rst.start());

  auto jpeg = lepton::corpus::jpeg_of_size(40 << 10, 55);
  auto one_shot = ctx.encode({jpeg.data(), jpeg.size()});
  ASSERT_TRUE(one_shot.ok());

  FleetClientConfig fc;
  fc.endpoints = {rst.endpoint, good.bound_address()};
  fc.first_deadline = std::chrono::milliseconds(0);
  FleetClient fleet(fc);
  // Make least-in-flight routing send the first attempt to the RST server;
  // the reset must classify as a transport failure and requeue.
  fleet.inject_reported_in_flight(1, 50);
  auto tr = fleet.convert(FleetOp::kEncode, jpeg);
  auto m = fleet.metrics();
  EXPECT_GE(m.transport_failures, 1u);
  EXPECT_EQ(m.requeues, 1u);
  EXPECT_EQ(tr.final_code, ExitCode::kSuccess)
      << "the reset connection must requeue, not fail the request";
  ASSERT_EQ(tr.attempts, 2);
  EXPECT_NE(tr.first_server, tr.final_server)
      << "§6.6: the requeue goes to a *different* server";
  EXPECT_EQ(tr.data, one_shot.data);
  good.stop();
  rst.stop();
}

TEST(LeptondTest, HealthCheckRoutesAroundDeadAndKillSwitchedDaemons) {
  lepton::CodecContext ctx(2);
  EventServer healthy = make_tcp_server(&ctx);
  EventServer dying = make_tcp_server(&ctx);
  ASSERT_TRUE(healthy.start()) << healthy.last_error();
  ASSERT_TRUE(dying.start()) << dying.last_error();
  dying.service().store()->set_shutoff(true);

  std::vector<std::vector<std::uint8_t>> files;
  for (int i = 0; i < 3; ++i) {
    files.push_back(lepton::corpus::jpeg_of_size(30 << 10, 600 + i));
  }

  // Health-checked routing: one probe pass before traffic. One transport
  // failure opens a breaker, and no breaker reopens within the test.
  FleetClientConfig fc;
  fc.endpoints = {healthy.bound_address(), dying.bound_address(),
                  "tcp:127.0.0.1:9"};  // discard port: nobody home
  fc.first_deadline = std::chrono::milliseconds(0);
  fc.breaker_threshold = 1;
  fc.breaker_cooldown = std::chrono::minutes(10);
  FleetClient fleet(fc);
  EXPECT_EQ(fleet.probe_now(), 3);
  auto probed = fleet.metrics();
  EXPECT_EQ(probed.health_probes, 3u);
  EXPECT_EQ(probed.unhealthy_endpoints, 2u)
      << "the dead endpoint and the kill-switched daemon both demote";

  for (const auto& f : files) {
    auto tr = fleet.convert(FleetOp::kEncode, f);
    EXPECT_EQ(tr.final_code, ExitCode::kSuccess);
    if (tr.attempts > 1) {
      EXPECT_NE(tr.first_server, tr.final_server)
          << "§6.6: the requeue goes to a *different* server";
    }
  }
  auto m = fleet.metrics();
  EXPECT_EQ(m.succeeded, files.size());
  EXPECT_EQ(m.requeues, 0u)
      << "probed routing should never hit a refusing server";
  EXPECT_EQ(dying.stats().requests, 0u)
      << "no conversion may route to the kill-switched daemon";
  EXPECT_EQ(healthy.stats().requests, files.size());

  // For decode fleets the kill-switched daemon is fair game (§5.7: stored
  // data must always read back).
  auto cli = LeptonClient::connect(healthy.bound_address());
  ASSERT_TRUE(cli.ok());
  auto lep = cli.encode({files[0].data(), files[0].size()});
  ASSERT_TRUE(lep.ok());
  FleetClientConfig dc;
  dc.endpoints = {dying.bound_address()};
  dc.op = FleetOp::kDecode;
  dc.first_deadline = std::chrono::milliseconds(0);
  dc.breaker_threshold = 1;
  dc.breaker_cooldown = std::chrono::minutes(10);
  FleetClient decoders(dc);
  EXPECT_EQ(decoders.probe_now(), 1);
  auto dt = decoders.convert(FleetOp::kDecode, lep.data);
  EXPECT_EQ(dt.final_code, ExitCode::kSuccess)
      << "a kill-switched daemon still serves decode fleets";
  EXPECT_EQ(dt.data, files[0]);

  healthy.stop();
  dying.stop();
}

TEST(LeptondTest, TcpFleetTimeoutRequeueIsByteIdentical) {
  // The §6.6 contract across a *daemon* fleet: first attempt times out on
  // one TCP daemon, the requeue converts on the other, and the bytes match
  // the in-process codec exactly.
  lepton::CodecContext ctx(4);
  EventServer s1 = make_tcp_server(&ctx);
  EventServer s2 = make_tcp_server(&ctx);
  ASSERT_TRUE(s1.start()) << s1.last_error();
  ASSERT_TRUE(s2.start()) << s2.last_error();

  std::vector<std::vector<std::uint8_t>> files;
  for (int i = 0; i < 3; ++i) {
    files.push_back(lepton::corpus::jpeg_of_size(200 << 10, 900 + i));
  }

  FleetClientConfig fc;
  fc.endpoints = {s1.bound_address(), s2.bound_address()};
  fc.first_deadline = std::chrono::milliseconds(1);  // every first try blows
  fc.retry_deadline = std::chrono::milliseconds(0);
  fc.max_attempts = 2;
  fc.backoff_base = std::chrono::milliseconds(0);
  FleetClient fleet(fc);

  for (const auto& f : files) {
    auto tr = fleet.convert(FleetOp::kEncode, f);
    if (tr.attempts > 1) {
      EXPECT_NE(tr.first_server, tr.final_server)
          << "§6.6: the requeue goes to a *different* server";
    }
    auto one_shot = ctx.encode({f.data(), f.size()});
    ASSERT_TRUE(one_shot.ok());
    EXPECT_EQ(tr.data, one_shot.data);
  }
  auto m = fleet.metrics();
  EXPECT_EQ(m.succeeded, files.size());
  EXPECT_GE(m.requeues, 1u);
  EXPECT_GE(
      m.first_attempt_codes.count(static_cast<unsigned>(ExitCode::kTimeout)),
      1u);
  s1.stop();
  s2.stop();
}

// ---- shutdown ---------------------------------------------------------------

TEST(LeptondTest, EventPlaneStopDrainsWithIdleConnectionsPending) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_tcp_server(&ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  std::vector<int> idle;
  for (int i = 0; i < 16; ++i) {
    int fd = raw_tcp_connect(srv.bound_address());
    ASSERT_GE(fd, 0);
    idle.push_back(fd);
  }
  ASSERT_TRUE(eventually([&] { return srv.open_connections() >= 16; }));

  auto t0 = std::chrono::steady_clock::now();
  srv.stop();
  double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(s, 5.0) << "graceful stop must not wait out idle timeouts";
  EXPECT_FALSE(srv.running());
  for (int fd : idle) ::close(fd);
}

TEST(LeptondTest, EventPlaneShutdownNowCancelsInFlight) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_tcp_server(&ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  auto jpeg = lepton::corpus::jpeg_of_size(400 << 10, 71);
  std::thread client([&] {
    auto cli = LeptonClient::connect(srv.bound_address());
    if (!cli.ok()) return;
    auto r = cli.encode({jpeg.data(), jpeg.size()});
    // Either the cancelled trailer arrived or the teardown cut the
    // connection — both are orderly; a completed success is possible if
    // the encode outran the shutdown.
    if (r.transport_ok && !r.ok()) {
      EXPECT_EQ(r.code, ExitCode::kServerShutdown);
    }
  });
  ASSERT_TRUE(eventually([&] { return srv.stats().in_flight > 0; }, 5));
  srv.shutdown_now();
  client.join();
  EXPECT_FALSE(srv.running());
}

}  // namespace

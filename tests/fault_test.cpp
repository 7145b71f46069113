// Fault-injection and self-healing contracts (util/failpoint.h,
// storage/fleet_client.h).
//
// Four layers: (1) the failpoint layer itself — grammar, triggers, and the
// replayability witness (same spec + seed => identical fire sequence);
// (2) the syscall shims — armed sock.read/sock.write sites actually produce
// the failure classes the serving stack is built to survive; (3) the
// FleetClient breaker machine — open on consecutive transport failures,
// half-open after cooldown, one probe through, closed on success, with
// bounded exponential backoff between retries; (4) graceful degradation —
// a fleet that cannot convert ends in a byte-identical pass-through object,
// never an error, never a corrupt byte.
//
// Failpoints are process-global; every test disarms on exit (the fixture)
// and in-process server tests arm only sites their own client path hits.
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus.h"
#include "lepton/codec.h"
#include "lepton/context.h"
#include "lepton/store.h"
#include "leptond/event_server.h"
#include "server/client.h"
#include "server/sockio.h"
#include "storage/fleet_client.h"
#include "util/failpoint.h"

namespace {

namespace fp = lepton::util::failpoint;

using lepton::leptond::EventServer;
using lepton::leptond::EventServerConfig;
using lepton::server::LeptonClient;
using lepton::server::ReadStatus;
using lepton::storage::BreakerState;
using lepton::storage::FleetClient;
using lepton::storage::FleetClientConfig;
using lepton::storage::FleetOp;
using lepton::util::ExitCode;

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fp::disarm(); }
};

EventServer make_tcp_server(lepton::CodecContext* ctx, int workers = 2) {
  EventServerConfig ec;
  ec.listen = "tcp:127.0.0.1:0";
  ec.workers = workers;
  return EventServer(std::move(ec), ctx);
}

FleetClientConfig client_cfg(const std::string& endpoint) {
  FleetClientConfig cfg;
  cfg.endpoints = {endpoint};
  cfg.first_deadline = std::chrono::milliseconds(0);
  cfg.backoff_base = std::chrono::milliseconds(1);
  cfg.backoff_cap = std::chrono::milliseconds(4);
  cfg.breaker_cooldown = std::chrono::milliseconds(40);
  return cfg;
}

// ---- grammar ---------------------------------------------------------------

TEST_F(FaultTest, ParsesTheReadmeSchedule) {
  std::string err;
  ASSERT_TRUE(fp::arm(
      "fleet.connect=err:ECONNREFUSED@0.3;sock.write=short@seed7;"
      "service.encode=delay:50ms@every5",
      &err))
      << err;
  EXPECT_TRUE(fp::armed());
  auto sites = fp::report();
  ASSERT_EQ(sites.size(), 3u);
}

TEST_F(FaultTest, RejectsMalformedSchedules) {
  for (const char* bad :
       {"nosite", "x=warp", "x=err:ENOTAREALERRNO", "x=delay:abcms",
        "x=err@maybe", "x=err@every0", "x=err@1.5", "seed=xyz",
        "x=short@seed"}) {
    std::string err;
    EXPECT_FALSE(fp::arm(bad, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
  // A failed arm leaves the layer disarmed (nothing was installed before).
  EXPECT_FALSE(fp::armed());
}

TEST_F(FaultTest, EmptySpecDisarmsAndUnsetEnvIsANoOp) {
  ASSERT_TRUE(fp::arm("x=fail"));
  EXPECT_TRUE(fp::armed());
  ASSERT_TRUE(fp::arm(""));
  EXPECT_FALSE(fp::armed());
  ::unsetenv("LEPTON_FAILPOINTS");
  EXPECT_TRUE(fp::arm_from_env());
  EXPECT_FALSE(fp::armed());
}

// ---- triggers & replayability ----------------------------------------------

TEST_F(FaultTest, EveryAndOnceTriggersFireOnSchedule) {
  ASSERT_TRUE(fp::arm("a=fail@every3;b=fail@once"));
  std::vector<bool> a_fires;
  for (int i = 0; i < 9; ++i) a_fires.push_back(fp::hit("a").fired());
  EXPECT_EQ(a_fires, (std::vector<bool>{false, false, true, false, false,
                                        true, false, false, true}));
  EXPECT_TRUE(fp::hit("b").fired());
  EXPECT_FALSE(fp::hit("b").fired());
  EXPECT_EQ(fp::fire_log("a"), (std::vector<std::uint64_t>{3, 6, 9}));
  EXPECT_EQ(fp::fire_log("b"), (std::vector<std::uint64_t>{1}));
}

TEST_F(FaultTest, UnarmedSitesReturnNone) {
  ASSERT_TRUE(fp::arm("a=fail"));
  EXPECT_FALSE(fp::hit("not-a-site").fired());
  EXPECT_TRUE(fp::hit("a").fired());
}

TEST_F(FaultTest, ProbabilityScheduleReplaysFromItsSeed) {
  auto run = [](const std::string& spec) {
    EXPECT_TRUE(fp::arm(spec));
    for (int i = 0; i < 200; ++i) fp::hit("p");
    auto log = fp::fire_log("p");
    fp::disarm();
    return log;
  };
  auto a = run("seed=11;p=err@0.3");
  auto b = run("seed=11;p=err@0.3");
  auto c = run("seed=12;p=err@0.3");
  EXPECT_EQ(a, b);               // the replay witness
  EXPECT_NE(a, c);               // the seed actually matters
  EXPECT_GT(a.size(), 30u);      // ~60 expected of 200
  EXPECT_LT(a.size(), 120u);
  // Per-site seed override pins the sequence regardless of the global seed.
  auto d = run("seed=11;p=err@0.3,seed99");
  auto e = run("seed=12;p=err@0.3,seed99");
  EXPECT_EQ(d, e);
}

TEST_F(FaultTest, ErrActionCarriesTheRequestedErrno) {
  ASSERT_TRUE(fp::arm("e=err:EPIPE;n=err:104;d=err"));
  EXPECT_EQ(fp::hit("e").err, EPIPE);
  EXPECT_EQ(fp::hit("n").err, ECONNRESET);  // numeric form
  EXPECT_EQ(fp::hit("d").err, EIO);         // default
}

TEST_F(FaultTest, StatsTextReportsHitsAndFires) {
  ASSERT_TRUE(fp::arm("s=fail@every2"));
  fp::hit("s");
  fp::hit("s");
  fp::hit("s");
  std::string text = fp::stats_text();
  EXPECT_NE(text.find("failpoint s 3 1\n"), std::string::npos) << text;
}

// ---- syscall shims ----------------------------------------------------------

TEST_F(FaultTest, SockWriteErrFailsTheSend) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(fp::arm("sock.write=err:EPIPE@once"));
  std::uint8_t buf[64] = {0};
  errno = 0;
  EXPECT_FALSE(lepton::server::send_all(sv[0], buf, sizeof buf));
  EXPECT_EQ(errno, EPIPE);
  // The once-trigger spent itself: the next write goes through untouched.
  EXPECT_TRUE(lepton::server::send_all(sv[0], buf, sizeof buf));
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_F(FaultTest, SockWriteShortDeliversAPrefixThenFails) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ASSERT_TRUE(fp::arm("sock.write=short@once"));
  std::uint8_t buf[256];
  for (std::size_t i = 0; i < sizeof buf; ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_FALSE(lepton::server::send_all(sv[0], buf, sizeof buf));
  ::close(sv[0]);  // writer done; reader sees prefix + EOF
  std::uint8_t got[256];
  ssize_t n = ::recv(sv[1], got, sizeof got, 0);
  ASSERT_GE(n, 0);
  ASSERT_LT(static_cast<std::size_t>(n), sizeof buf);  // genuinely short
  for (ssize_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], buf[i]);  // the prefix is the true bytes, not garbage
  }
  ::close(sv[1]);
}

TEST_F(FaultTest, SockReadErrAndShortClassify) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::uint8_t b = 7;
  ASSERT_EQ(::send(sv[0], &b, 1, 0), 1);
  ASSERT_TRUE(fp::arm("sock.read=err:ETIMEDOUT@once"));
  std::uint8_t out;
  EXPECT_EQ(lepton::server::read_exact(sv[1], &out, 1), ReadStatus::kError);
  // Spent: the byte is still in the socket and now reads normally.
  EXPECT_EQ(lepton::server::read_exact(sv[1], &out, 1), ReadStatus::kOk);
  EXPECT_EQ(out, 7);
  ASSERT_TRUE(fp::arm("sock.read=short"));
  EXPECT_EQ(lepton::server::read_exact(sv[1], &out, 1),
            ReadStatus::kTruncated);
  ::close(sv[0]);
  ::close(sv[1]);
}

// ---- memory-gate classification --------------------------------------------

TEST_F(FaultTest, MemGateFailpointClassifiesPerSection62) {
  std::vector<std::uint8_t> jpeg = lepton::corpus::jpeg_of_size(24 << 10, 3);
  lepton::Result enc = lepton::encode_jpeg(jpeg);
  ASSERT_EQ(enc.code, ExitCode::kSuccess);

  ASSERT_TRUE(fp::arm("codec.mem_gate=fail@once"));
  lepton::Result dec = lepton::decode_lepton(enc.data);
  EXPECT_EQ(dec.code, ExitCode::kMemLimitDecode);

  ASSERT_TRUE(fp::arm("codec.mem_gate=fail@once"));
  lepton::Result enc2 = lepton::encode_jpeg(jpeg);
  EXPECT_EQ(enc2.code, ExitCode::kMemLimitEncode);

  fp::disarm();
  lepton::Result dec2 = lepton::decode_lepton(enc.data);
  ASSERT_EQ(dec2.code, ExitCode::kSuccess);
  EXPECT_EQ(dec2.data, jpeg);
}

// ---- circuit breaker --------------------------------------------------------

TEST_F(FaultTest, BreakerOpensHalfOpensAndCloses) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_tcp_server(&ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();
  std::vector<std::uint8_t> jpeg = lepton::corpus::jpeg_of_size(24 << 10, 5);

  FleetClientConfig cfg = client_cfg(srv.bound_address());
  cfg.breaker_threshold = 3;
  cfg.max_attempts = 3;
  FleetClient fc(cfg);

  // All connects refused: three attempts = three consecutive transport
  // failures = the breaker opens.
  ASSERT_TRUE(fp::arm("fleet.connect=err:ECONNREFUSED"));
  auto tr = fc.convert(FleetOp::kEncode, jpeg);
  EXPECT_NE(tr.final_code, ExitCode::kSuccess);
  EXPECT_EQ(tr.attempts, 3);
  auto eps = fc.endpoints();
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].state, BreakerState::kOpen);
  EXPECT_EQ(fc.metrics().breaker_opens, 1u);
  EXPECT_EQ(fc.metrics().transport_failures, 3u);

  // While open (cooldown pending): fast-fail, zero attempts.
  auto fast = fc.convert(FleetOp::kEncode, jpeg);
  EXPECT_EQ(fast.attempts, 0);
  EXPECT_EQ(fast.final_code, ExitCode::kServerShutdown);
  EXPECT_GE(fc.metrics().breaker_fast_fails, 1u);

  // Cooldown elapses, faults cleared: the prober's half-open PING closes it.
  fp::disarm();
  std::this_thread::sleep_for(cfg.breaker_cooldown +
                              std::chrono::milliseconds(10));
  EXPECT_GE(fc.probe_now(), 1);
  eps = fc.endpoints();
  EXPECT_EQ(eps[0].state, BreakerState::kClosed);
  EXPECT_EQ(fc.metrics().breaker_closes, 1u);

  // And a real conversion flows again, byte-checked.
  auto ok = fc.convert(FleetOp::kEncode, jpeg);
  ASSERT_EQ(ok.final_code, ExitCode::kSuccess);
  lepton::Result rt = lepton::decode_lepton(ok.data);
  ASSERT_EQ(rt.code, ExitCode::kSuccess);
  EXPECT_EQ(rt.data, jpeg);
  srv.stop();
}

TEST_F(FaultTest, HalfOpenAdmitsOneProbeAndReopensOnFailure) {
  FleetClientConfig cfg = client_cfg("tcp:127.0.0.1:1");  // nothing listens
  cfg.breaker_threshold = 1;
  cfg.max_attempts = 1;
  FleetClient fc(cfg);
  std::vector<std::uint8_t> body{1, 2, 3};

  ASSERT_TRUE(fp::arm("fleet.connect=err:ECONNREFUSED"));
  (void)fc.convert(FleetOp::kEncode, body);
  EXPECT_EQ(fc.endpoints()[0].state, BreakerState::kOpen);

  std::this_thread::sleep_for(cfg.breaker_cooldown +
                              std::chrono::milliseconds(10));
  // Due for probing: exactly one request goes through half-open; it fails,
  // so the breaker re-opens.
  auto probe = fc.convert(FleetOp::kEncode, body);
  EXPECT_EQ(probe.attempts, 1);
  EXPECT_EQ(fc.metrics().half_open_probes, 1u);
  EXPECT_EQ(fc.endpoints()[0].state, BreakerState::kOpen);
  EXPECT_EQ(fc.metrics().breaker_opens, 2u);

  // Immediately after the failed probe the cooldown is fresh: fast-fail.
  auto fast = fc.convert(FleetOp::kEncode, body);
  EXPECT_EQ(fast.attempts, 0);
}

TEST_F(FaultTest, BackoffSleepsABoundedExponentialSchedule) {
  FleetClientConfig cfg = client_cfg("tcp:127.0.0.1:1");
  cfg.max_attempts = 3;
  cfg.breaker_threshold = 100;  // keep the breaker out of this test
  cfg.backoff_base = std::chrono::milliseconds(40);
  cfg.backoff_cap = std::chrono::milliseconds(1000);
  FleetClient fc(cfg);
  std::vector<std::uint8_t> body{1};

  ASSERT_TRUE(fp::arm("fleet.connect=err:ECONNREFUSED"));
  auto t0 = std::chrono::steady_clock::now();
  auto tr = fc.convert(FleetOp::kEncode, body);
  double elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  EXPECT_EQ(tr.attempts, 3);
  auto m = fc.metrics();
  EXPECT_EQ(m.backoff_retries, 2u);
  // Retry 1 sleeps in [20,40] ms, retry 2 in [40,80]: total in [60,120].
  EXPECT_GE(m.backoff_wait_s, 0.060);
  EXPECT_LE(m.backoff_wait_s, 0.120);
  EXPECT_GE(elapsed_s, 0.055);  // the sleeps really happened (5 ms slop)
  EXPECT_GE(tr.total_s, m.backoff_wait_s);  // user-visible wait includes them
}

TEST_F(FaultTest, BackoffScheduleReplaysFromTheClientSeed) {
  auto run = [] {
    FleetClientConfig cfg = client_cfg("tcp:127.0.0.1:1");
    cfg.max_attempts = 4;
    cfg.breaker_threshold = 100;
    cfg.backoff_base = std::chrono::milliseconds(2);
    cfg.seed = 123;
    FleetClient fc(cfg);
    std::vector<std::uint8_t> body{1};
    (void)fc.convert(FleetOp::kEncode, body);
    return fc.metrics().backoff_wait_s;
  };
  ASSERT_TRUE(fp::arm("fleet.connect=err:ECONNREFUSED"));
  EXPECT_EQ(run(), run());
}

// ---- least-in-flight routing ------------------------------------------------

TEST_F(FaultTest, RoutesToTheLeastLoadedEndpoint) {
  lepton::CodecContext ctx(2);
  EventServer a = make_tcp_server(&ctx);
  EventServer b = make_tcp_server(&ctx);
  ASSERT_TRUE(a.start()) << a.last_error();
  ASSERT_TRUE(b.start()) << b.last_error();
  std::vector<std::uint8_t> jpeg = lepton::corpus::jpeg_of_size(24 << 10, 9);

  FleetClientConfig cfg = client_cfg(a.bound_address());
  cfg.endpoints = {a.bound_address(), b.bound_address()};
  cfg.max_attempts = 1;
  FleetClient fc(cfg);
  // Pretend STATS reported server 0 heavily loaded: every pick must go to 1.
  fc.inject_reported_in_flight(0, 50);
  for (int i = 0; i < 4; ++i) {
    auto tr = fc.convert(FleetOp::kEncode, jpeg);
    ASSERT_EQ(tr.final_code, ExitCode::kSuccess);
    EXPECT_EQ(tr.final_server, 1);
  }
  // A STATS probe pass refreshes the stale depth from the live server.
  EXPECT_EQ(fc.probe_now(), 2);
  EXPECT_EQ(fc.endpoints()[0].server_in_flight, 0u);
  a.stop();
  b.stop();
}

// ---- §6.6 requeue target -----------------------------------------------------

// A conversion that blows its time box is requeued on a *different* server.
// Every first attempt here times out at 1 ms; whichever daemon the seeded
// tie-break picked first, the requeue must land on the other one.
TEST_F(FaultTest, RequeueNeverReturnsToTheServerThatTimedOut) {
  lepton::CodecContext ctx(2);
  EventServer a = make_tcp_server(&ctx);
  EventServer b = make_tcp_server(&ctx);
  ASSERT_TRUE(a.start()) << a.last_error();
  ASSERT_TRUE(b.start()) << b.last_error();
  std::vector<std::vector<std::uint8_t>> files;
  for (int i = 0; i < 3; ++i) {
    files.push_back(lepton::corpus::jpeg_of_size(200 << 10, 900 + i));
  }

  std::uint64_t requeued = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    FleetClientConfig cfg = client_cfg(a.bound_address());
    cfg.endpoints = {a.bound_address(), b.bound_address()};
    cfg.first_deadline = std::chrono::milliseconds(1);
    cfg.max_attempts = 2;
    cfg.seed = seed;
    FleetClient fc(cfg);
    for (const auto& f : files) {
      auto tr = fc.convert(FleetOp::kEncode, f);
      EXPECT_EQ(tr.final_code, ExitCode::kSuccess) << "seed " << seed;
      if (tr.attempts > 1) {
        ++requeued;
        EXPECT_NE(tr.first_server, tr.final_server)
            << "seed " << seed << ": requeued onto the server that timed out";
      }
    }
  }
  EXPECT_GE(requeued, 10u) << "the 1 ms first deadline must force requeues";
  a.stop();
  b.stop();
}

// ---- graceful degradation ---------------------------------------------------

TEST_F(FaultTest, PutDegradesToByteIdenticalPassthrough) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_tcp_server(&ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();
  std::vector<std::uint8_t> jpeg = lepton::corpus::jpeg_of_size(32 << 10, 11);
  lepton::TransparentStore store;

  FleetClientConfig cfg = client_cfg(srv.bound_address());
  FleetClient fc(cfg);

  // Healthy fleet: put() admits the wire container under the §5.7 gate.
  auto ok = fc.put(store, jpeg);
  EXPECT_FALSE(ok.passthrough);
  EXPECT_EQ(ok.object.kind, lepton::StorageKind::kLepton);
  lepton::Result got = store.get(ok.object);
  ASSERT_EQ(got.code, ExitCode::kSuccess);
  EXPECT_EQ(got.data, jpeg);

  // The server's encode path fails every request (a content-class failure:
  // not requeue-worthy, no retry storm) — put() must degrade, not error.
  ASSERT_TRUE(fp::arm("service.encode=fail"));
  auto pr = fc.put(store, jpeg);
  EXPECT_TRUE(pr.passthrough);
  EXPECT_EQ(pr.fleet_code, ExitCode::kImpossible);
  EXPECT_EQ(pr.object.kind, lepton::StorageKind::kPassthrough);
  EXPECT_EQ(fc.metrics().passthrough_fallbacks, 1u);
  got = store.get(pr.object);
  ASSERT_EQ(got.code, ExitCode::kSuccess);
  EXPECT_EQ(got.data, jpeg);  // byte-identical: durability never degraded

  // Fleet entirely unreachable: same contract via the transport path.
  ASSERT_TRUE(fp::arm("fleet.connect=err:ECONNREFUSED"));
  auto pr2 = fc.put(store, jpeg);
  EXPECT_TRUE(pr2.passthrough);
  got = store.get(pr2.object);
  ASSERT_EQ(got.code, ExitCode::kSuccess);
  EXPECT_EQ(got.data, jpeg);
  srv.stop();
}

TEST_F(FaultTest, AdmitConvertedRejectsACorruptContainer) {
  std::vector<std::uint8_t> jpeg = lepton::corpus::jpeg_of_size(24 << 10, 13);
  lepton::Result enc = lepton::encode_jpeg(jpeg);
  ASSERT_EQ(enc.code, ExitCode::kSuccess);
  lepton::TransparentStore store;
  lepton::StoredObject obj;
  ASSERT_TRUE(store.admit_converted(jpeg, enc.data, &obj));
  EXPECT_EQ(obj.kind, lepton::StorageKind::kLepton);

  std::vector<std::uint8_t> bad = enc.data;
  bad[bad.size() / 2] ^= 0x40;
  lepton::PutStats ps;
  EXPECT_FALSE(store.admit_converted(jpeg, bad, &obj, &ps));
  EXPECT_EQ(ps.lepton_code, ExitCode::kRoundtripFailed);
}

// ---- server-side failpoint visibility ---------------------------------------

TEST_F(FaultTest, StatsFramesCarryFailpointCountersWhenArmed) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_tcp_server(&ctx);
  ASSERT_TRUE(srv.start()) << srv.last_error();
  std::vector<std::uint8_t> jpeg = lepton::corpus::jpeg_of_size(24 << 10, 17);

  auto cli = LeptonClient::connect(srv.bound_address());
  ASSERT_TRUE(cli.ok());
  auto base = cli.stats();
  ASSERT_TRUE(base.ok());
  std::string base_text(base.data.begin(), base.data.end());
  EXPECT_EQ(base_text.find("failpoint"), std::string::npos);

  // Armed with a never-firing schedule: the counters appear, the request
  // path is untouched.
  ASSERT_TRUE(fp::arm("service.encode=fail@0.0"));
  auto enc = cli.encode(jpeg);
  ASSERT_TRUE(enc.ok());
  auto armed = cli.stats();
  ASSERT_TRUE(armed.ok());
  std::string text(armed.data.begin(), armed.data.end());
  EXPECT_NE(text.find("failpoints_armed 1"), std::string::npos) << text;
  EXPECT_NE(text.find("failpoint service.encode 1 0"), std::string::npos)
      << text;
  srv.stop();
}

}  // namespace

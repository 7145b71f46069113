// Serving front-end tests over AF_UNIX (docs/PROTOCOL.md is the contract
// under test; tests/leptond_test.cpp drives the same event plane over TCP).
//
// Three layers: (1) the happy path — a served conversion is byte-identical
// to the one-shot API it wraps; (2) hostile clients — mid-request
// disconnects, oversized declared lengths (rejected before allocation),
// clients that stop reading; (3) the §6.6 deployment contract — deadline
// expiry comes back as a kTimeout trailer and FleetClient requeues the
// request on a second server, and the §5.7 kill-switch refuses encodes
// while SHUTOFF frames see the switch without the store's 250 ms TTL lag.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus.h"
#include "lepton/lepton.h"
#include "leptond/event_server.h"
#include "server/client.h"
#include "server/endpoint.h"
#include "server/protocol.h"
#include "storage/fleet_client.h"

namespace {

using lepton::leptond::EventServer;
using lepton::leptond::EventServerConfig;
using lepton::server::FrameType;
using lepton::server::LeptonClient;
using lepton::server::ServiceConfig;
using lepton::server::ShutoffOp;
using lepton::storage::FleetClient;
using lepton::storage::FleetClientConfig;
using lepton::storage::FleetOp;
using lepton::util::ExitCode;

std::string unique_sock(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/lepton_srvtest_" + std::to_string(::getpid()) + "_" + tag +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// An event-plane server on a fresh AF_UNIX socket; start() it, then reach
// it at bound_address().
EventServer make_unix_server(lepton::CodecContext* ctx, const char* tag,
                             ServiceConfig service = {}) {
  EventServerConfig ec;
  ec.listen = "unix:" + unique_sock(tag);
  ec.workers = 2;
  ec.service = std::move(service);
  return EventServer(std::move(ec), ctx);
}

// Polls `pred` until it holds or ~2 s pass (server-side counters update
// asynchronously after a hostile client hangs up).
template <typename Pred>
bool eventually(Pred pred) {
  auto until = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    if (pred()) return true;
    if (std::chrono::steady_clock::now() >= until) return pred();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// ---- raw-socket hostile client ---------------------------------------------

int raw_connect(const std::string& endpoint) {
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

void raw_open_frame(int fd, FrameType type, std::uint32_t deadline_ms = 0) {
  std::uint8_t buf[lepton::server::kFrameHeaderSize +
                   lepton::server::kOpenPayloadSize];
  lepton::server::write_frame_header(
      buf, {type, 0, lepton::server::kOpenPayloadSize});
  lepton::server::OpenPayload open;
  open.deadline_ms = deadline_ms;
  lepton::server::write_open_payload(buf + lepton::server::kFrameHeaderSize,
                                     open);
  ASSERT_TRUE(raw_send(fd, buf, sizeof buf));
}

// Reads frames until the trailer; returns its payload (flagging a test
// failure and bailing with a zeroed trailer on any framing surprise).
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

// ---- protocol unit tests ----------------------------------------------------

TEST(Protocol, FrameHeaderRoundTrip) {
  std::uint8_t buf[lepton::server::kFrameHeaderSize];
  lepton::server::write_frame_header(buf, {FrameType::kData, 0, 123456});
  lepton::server::FrameHeader fh;
  ASSERT_TRUE(lepton::server::parse_frame_header(buf, &fh));
  EXPECT_EQ(fh.type, FrameType::kData);
  EXPECT_EQ(fh.length, 123456u);
}

TEST(Protocol, OversizedAndMalformedHeadersRejected) {
  std::uint8_t buf[lepton::server::kFrameHeaderSize];
  lepton::server::FrameHeader fh;
  // DATA over the per-frame cap.
  lepton::server::write_frame_header(
      buf, {FrameType::kData, 0, lepton::server::kMaxDataFrame + 1});
  EXPECT_FALSE(lepton::server::parse_frame_header(buf, &fh));
  // Control frame over the control cap.
  lepton::server::write_frame_header(buf, {FrameType::kEncode, 0, 65});
  EXPECT_FALSE(lepton::server::parse_frame_header(buf, &fh));
  // Unknown type.
  lepton::server::write_frame_header(buf, {static_cast<FrameType>(0x77), 0, 0});
  EXPECT_FALSE(lepton::server::parse_frame_header(buf, &fh));
  // Nonzero flags.
  lepton::server::write_frame_header(buf, {FrameType::kPing, 0, 0});
  buf[1] = 1;
  EXPECT_FALSE(lepton::server::parse_frame_header(buf, &fh));
}

TEST(Protocol, TrailerRoundTrip) {
  std::uint8_t buf[lepton::server::kTrailerPayloadSize];
  lepton::server::TrailerPayload in;
  in.exit_code = static_cast<std::uint8_t>(ExitCode::kTimeout);
  in.shutoff_engaged = true;
  in.bytes_in = 0x1122334455667788ull;
  in.bytes_out = 42;
  lepton::server::write_trailer_payload(buf, in);
  lepton::server::TrailerPayload out;
  ASSERT_TRUE(lepton::server::parse_trailer_payload(buf, sizeof buf, &out));
  EXPECT_EQ(out.exit_code, in.exit_code);
  EXPECT_TRUE(out.shutoff_engaged);
  EXPECT_EQ(out.bytes_in, in.bytes_in);
  EXPECT_EQ(out.bytes_out, in.bytes_out);
}

TEST(ReservoirPercentiles, BoundedAndAccurate) {
  lepton::util::ReservoirPercentiles r(512);
  for (int i = 0; i < 100000; ++i) r.add(i % 1000);
  EXPECT_EQ(r.count(), 100000u);
  EXPECT_LE(r.reservoir_size(), 512u) << "memory must stay bounded";
  // Uniform 0..999: p50 near 500 (reservoir error band, not exactness).
  EXPECT_NEAR(r.percentile(50), 500.0, 80.0);
  EXPECT_NEAR(r.percentile(99), 990.0, 30.0);
}

TEST(CodeTally, CountsAndMerges) {
  lepton::util::CodeTally a, b;
  a.add(0);
  a.add(0);
  a.add(10);
  b.add(10);
  a.merge(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(10), 2u);
  EXPECT_EQ(a.count(3), 0u);
  EXPECT_EQ(a.total(), 4u);
}

// ---- round trip -------------------------------------------------------------

TEST(UnixServerTest, RoundTripByteIdenticalToOneShot) {
  lepton::CodecContext ctx(4);
  EventServer srv = make_unix_server(&ctx, "rt");
  ASSERT_TRUE(srv.start()) << srv.last_error();

  auto jpeg = lepton::corpus::jpeg_of_size(60 << 10, 42);
  auto one_shot = ctx.encode({jpeg.data(), jpeg.size()});
  ASSERT_TRUE(one_shot.ok());

  auto cli = LeptonClient::connect(srv.bound_address());
  ASSERT_TRUE(cli.ok()) << cli.message();

  auto enc = cli.encode({jpeg.data(), jpeg.size()});
  ASSERT_TRUE(enc.ok()) << enc.message;
  EXPECT_EQ(enc.data, one_shot.data) << "served encode must be byte-identical "
                                        "to the one-shot API";
  EXPECT_EQ(enc.server_bytes_in, jpeg.size());
  EXPECT_EQ(enc.server_bytes_out, enc.data.size());

  // Same connection, next request (keep-alive after a success trailer).
  auto dec = cli.decode({enc.data.data(), enc.data.size()});
  ASSERT_TRUE(dec.ok()) << dec.message;
  EXPECT_EQ(dec.data, jpeg);
  EXPECT_GT(dec.ttfb_s, 0.0);

  auto stats = srv.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.trailer_codes.count(static_cast<unsigned>(ExitCode::kSuccess)),
            2u);
  EXPECT_EQ(stats.bytes_in, jpeg.size() + enc.data.size());
  srv.stop();
  EXPECT_FALSE(srv.running());
}

TEST(UnixServerTest, PingAnswersAndConnectionSurvives) {
  EventServer srv = make_unix_server(nullptr, "ping");
  ASSERT_TRUE(srv.start()) << srv.last_error();
  auto cli = LeptonClient::connect(srv.bound_address());
  ASSERT_TRUE(cli.ok());
  for (int i = 0; i < 3; ++i) {
    auto r = cli.ping();
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.shutoff_engaged);
  }
  srv.stop();
}

// ---- hostile clients --------------------------------------------------------

TEST(UnixServerTest, TruncatedBodyDisconnectCancelsSession) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_unix_server(&ctx, "midreq");
  ASSERT_TRUE(srv.start()) << srv.last_error();

  // Open a decode request, declare a 4000-byte DATA frame, send 10 bytes,
  // vanish. The server must cancel the request's session and count the
  // disconnect — and drain back to zero in-flight.
  int fd = raw_connect(srv.bound_address());
  ASSERT_GE(fd, 0);
  raw_open_frame(fd, FrameType::kDecode);
  std::uint8_t hdr[lepton::server::kFrameHeaderSize];
  lepton::server::write_frame_header(hdr, {FrameType::kData, 0, 4000});
  ASSERT_TRUE(raw_send(fd, hdr, sizeof hdr));
  std::uint8_t dribble[10] = {0xAA};
  ASSERT_TRUE(raw_send(fd, dribble, sizeof dribble));
  ::close(fd);

  EXPECT_TRUE(eventually([&] { return srv.stats().disconnects >= 1; }));
  EXPECT_TRUE(eventually([&] { return srv.stats().in_flight == 0; }));
  auto s = srv.stats();
  EXPECT_GE(s.trailer_codes.count(static_cast<unsigned>(ExitCode::kShortRead)),
            1u);
  srv.stop();
}

TEST(UnixServerTest, OversizedDeclaredLengthRejectedPreAllocation) {
  EventServer srv = make_unix_server(nullptr, "oversz");
  ASSERT_TRUE(srv.start()) << srv.last_error();

  // In-request: a DATA frame declaring ~2 GiB. The server must answer with
  // the §6.2 memory-budget code having read only the 8-byte header — the
  // trailer arriving at all (instantly, with no 2 GiB to back it) is the
  // pre-allocation proof.
  int fd = raw_connect(srv.bound_address());
  ASSERT_GE(fd, 0);
  raw_open_frame(fd, FrameType::kEncode);
  std::uint8_t hdr[lepton::server::kFrameHeaderSize];
  lepton::server::write_frame_header(hdr, {FrameType::kData, 0, 0x7FFFFF00u});
  ASSERT_TRUE(raw_send(fd, hdr, sizeof hdr));
  auto t = raw_read_trailer(fd);
  EXPECT_EQ(t.exit_code, static_cast<std::uint8_t>(ExitCode::kMemLimitEncode));
  ::close(fd);

  // A body within the per-frame cap but over the request cap is refused at
  // the declaration too.
  ServiceConfig small;
  small.max_body_bytes = 1 << 10;
  EventServer srv2 = make_unix_server(nullptr, "oversz", small);
  ASSERT_TRUE(srv2.start()) << srv2.last_error();
  fd = raw_connect(srv2.bound_address());
  ASSERT_GE(fd, 0);
  raw_open_frame(fd, FrameType::kDecode);
  lepton::server::write_frame_header(hdr, {FrameType::kData, 0, 2 << 10});
  ASSERT_TRUE(raw_send(fd, hdr, sizeof hdr));
  t = raw_read_trailer(fd);
  EXPECT_EQ(t.exit_code, static_cast<std::uint8_t>(ExitCode::kMemLimitDecode));
  ::close(fd);

  EXPECT_GE(srv.stats().oversized_rejects, 1u);
  EXPECT_GE(srv2.stats().oversized_rejects, 1u);
  srv.stop();
  srv2.stop();
}

TEST(UnixServerTest, HostileJpegClassifiesLikeOneShot) {
  // A progressive JPEG must come back with the same §6.2 code the library
  // gives, proving classifications ride the trailer unchanged.
  lepton::CodecContext ctx(2);
  EventServer srv = make_unix_server(&ctx, "classify");
  ASSERT_TRUE(srv.start()) << srv.last_error();

  lepton::corpus::CorpusOptions copts;
  copts.valid_files = 2;
  copts.min_bytes = 8 << 10;
  copts.max_bytes = 16 << 10;
  auto corpus = lepton::corpus::build_corpus(copts);
  for (const auto& f : corpus) {
    if (f.kind != lepton::corpus::FileKind::kProgressive) continue;
    auto one_shot = ctx.encode({f.bytes.data(), f.bytes.size()});
    auto cli = LeptonClient::connect(srv.bound_address());
    ASSERT_TRUE(cli.ok());
    auto r = cli.encode({f.bytes.data(), f.bytes.size()});
    ASSERT_TRUE(r.transport_ok) << r.message;
    EXPECT_EQ(r.code, one_shot.code);
    break;
  }
  srv.stop();
}

// ---- deadlines + requeue ----------------------------------------------------

TEST(UnixServerTest, DeadlineExpiryReturnsTimeoutTrailer) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_unix_server(&ctx, "deadline");
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
  EXPECT_GE(srv.stats().trailer_codes.count(
                static_cast<unsigned>(ExitCode::kTimeout)),
            1u);
  srv.stop();
}

TEST(FleetRequeueTest, TimedOutRequestRequeuesToSecondServer) {
  lepton::CodecContext ctx(4);
  EventServer s1 = make_unix_server(&ctx, "fleet");
  EventServer s2 = make_unix_server(&ctx, "fleet");
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
    // The served result is the real conversion, byte-identical to one-shot.
    auto one_shot = ctx.encode({f.data(), f.size()});
    ASSERT_TRUE(one_shot.ok());
    EXPECT_EQ(tr.data, one_shot.data);
  }

  auto m = fleet.metrics();
  EXPECT_EQ(m.requests, files.size());
  EXPECT_EQ(m.succeeded, files.size())
      << "requeued attempts with no deadline must all convert";
  EXPECT_GE(m.requeues, 1u);
  EXPECT_GE(m.first_attempt_codes.count(
                static_cast<unsigned>(ExitCode::kTimeout)),
            1u);
  EXPECT_EQ(m.final_codes.count(static_cast<unsigned>(ExitCode::kSuccess)),
            files.size());
  s1.stop();
  s2.stop();
}

TEST(FleetRequeueTest, RequeuesAroundKillSwitchedServer) {
  // kServerShutdown is a property of the machine, not the file: a request
  // refused by a kill-switched server must requeue to a healthy one.
  lepton::CodecContext ctx(2);
  EventServer s1 = make_unix_server(&ctx, "shutfleet");
  EventServer s2 = make_unix_server(&ctx, "shutfleet");
  ASSERT_TRUE(s1.start()) << s1.last_error();
  ASSERT_TRUE(s2.start()) << s2.last_error();
  {
    auto cli = LeptonClient::connect(s1.bound_address());
    ASSERT_TRUE(cli.shutoff(ShutoffOp::kEngage).ok());
  }

  auto jpeg = lepton::corpus::jpeg_of_size(40 << 10, 123);

  FleetClientConfig fc;
  fc.endpoints = {s1.bound_address(), s2.bound_address()};
  fc.first_deadline = std::chrono::milliseconds(0);
  fc.max_attempts = 2;
  fc.seed = 5;
  FleetClient fleet(fc);
  // Make least-in-flight routing send the first attempt to s1.
  fleet.inject_reported_in_flight(1, 50);
  auto tr = fleet.convert(FleetOp::kEncode, jpeg);
  EXPECT_EQ(fleet.metrics().succeeded, 1u)
      << "a per-server kill-switch must not permanently fail the request";
  EXPECT_EQ(tr.final_code, ExitCode::kSuccess);
  EXPECT_EQ(tr.first_code, ExitCode::kServerShutdown);
  ASSERT_EQ(tr.attempts, 2);
  EXPECT_NE(tr.first_server, tr.final_server)
      << "§6.6: the requeue goes to a *different* server";
  s1.stop();
  s2.stop();
}

// ---- slow consumers + drain --------------------------------------------------

TEST(UnixServerTest, UnreadableClientIsDisconnectedNotWedged) {
  // A client that sends a whole decode request and then never reads fills
  // its receive buffer; the server's response writes must time out (send
  // timeout = idle_read_timeout), cancel the session, and free the slot —
  // not block a worker forever.
  lepton::CodecContext ctx(2);
  ServiceConfig svc;
  svc.idle_read_timeout = std::chrono::milliseconds(300);
  EventServer srv = make_unix_server(&ctx, "slowreader", svc);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  // A container whose decoded output overflows any socket buffer.
  auto jpeg = lepton::corpus::jpeg_of_size(600 << 10, 31);
  auto lep = ctx.encode({jpeg.data(), jpeg.size()});
  ASSERT_TRUE(lep.ok());

  int fd = raw_connect(srv.bound_address());
  ASSERT_GE(fd, 0);
  raw_open_frame(fd, FrameType::kDecode);
  std::uint8_t hdr[lepton::server::kFrameHeaderSize];
  std::size_t off = 0;
  while (off < lep.data.size()) {
    auto n = static_cast<std::uint32_t>(
        std::min<std::size_t>(64 << 10, lep.data.size() - off));
    lepton::server::write_frame_header(hdr, {FrameType::kData, 0, n});
    if (!raw_send(fd, hdr, sizeof hdr) ||
        !raw_send(fd, lep.data.data() + off, n)) {
      break;  // server already gave up on us — also a pass, checked below
    }
    off += n;
  }
  lepton::server::write_frame_header(hdr, {FrameType::kEnd, 0, 0});
  (void)raw_send(fd, hdr, sizeof hdr);
  // Never read. The server must record a disconnect and drain within the
  // send timeout, not wedge.
  EXPECT_TRUE(eventually([&] { return srv.stats().disconnects >= 1; }));
  EXPECT_TRUE(eventually([&] { return srv.stats().in_flight == 0; }));
  auto t0 = std::chrono::steady_clock::now();
  srv.stop();
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count(),
            5.0);
  ::close(fd);
}

TEST(UnixServerTest, ZeroSliceBytesIsClampedNotDivideByZero) {
  lepton::CodecContext ctx(2);
  EventServer srv = make_unix_server(&ctx, "slice0");
  ASSERT_TRUE(srv.start()) << srv.last_error();
  auto jpeg = lepton::corpus::jpeg_of_size(30 << 10, 9);
  auto cli = LeptonClient::connect(srv.bound_address());
  ASSERT_TRUE(cli.ok());
  lepton::server::RequestOptions opts;
  opts.slice_bytes = 0;
  auto r = cli.encode({jpeg.data(), jpeg.size()}, opts);
  EXPECT_TRUE(r.ok()) << r.message;
  srv.stop();
}

// ---- kill-switch ------------------------------------------------------------

TEST(TransparentStore, RecheckShutoffBypassesTtlCache) {
  std::string path = ::testing::TempDir() + "lepton_recheck_ttl_test";
  ::unlink(path.c_str());
  lepton::TransparentStore store;
  store.set_shutoff_file(path);
  EXPECT_FALSE(store.shutoff_active());  // primes the TTL cache

  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  // The cached answer may stay stale for up to 250 ms; the forced re-check
  // must see the file immediately.
  EXPECT_TRUE(store.recheck_shutoff());
  EXPECT_TRUE(store.shutoff_active()) << "recheck refreshes the cache";

  ::unlink(path.c_str());
  EXPECT_TRUE(store.shutoff_active()) << "TTL cache still holds the flip";
  EXPECT_FALSE(store.recheck_shutoff());
  EXPECT_FALSE(store.shutoff_active());
}

TEST(UnixServerTest, ShutoffFrameFlipsKillSwitchAndForcesRecheck) {
  lepton::CodecContext ctx(2);
  std::string file = ::testing::TempDir() + "lepton_srv_shutoff_file";
  ::unlink(file.c_str());
  lepton::TransparentStore store;
  store.set_shutoff_file(file);

  ServiceConfig svc;
  svc.store = &store;
  EventServer srv = make_unix_server(&ctx, "shutoff", svc);
  ASSERT_TRUE(srv.start()) << srv.last_error();

  auto jpeg = lepton::corpus::jpeg_of_size(30 << 10, 8);

  // Engage via frame: encodes refused, decodes still served (§5.7 says
  // compression stops; stored data must always read back).
  {
    auto cli = LeptonClient::connect(srv.bound_address());
    ASSERT_TRUE(cli.ok());
    auto lep = cli.encode({jpeg.data(), jpeg.size()});
    ASSERT_TRUE(lep.ok());

    auto cli2 = LeptonClient::connect(srv.bound_address());
    auto r = cli2.shutoff(ShutoffOp::kEngage);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.shutoff_engaged);

    auto cli3 = LeptonClient::connect(srv.bound_address());
    auto refused = cli3.encode({jpeg.data(), jpeg.size()});
    ASSERT_TRUE(refused.transport_ok);
    EXPECT_EQ(refused.code, ExitCode::kServerShutdown);

    auto cli4 = LeptonClient::connect(srv.bound_address());
    auto dec = cli4.decode({lep.data.data(), lep.data.size()});
    ASSERT_TRUE(dec.ok()) << "decode must survive the kill-switch";
    EXPECT_EQ(dec.data, jpeg);

    auto cli5 = LeptonClient::connect(srv.bound_address());
    auto off = cli5.shutoff(ShutoffOp::kClear);
    ASSERT_TRUE(off.ok());
    EXPECT_FALSE(off.shutoff_engaged);
  }

  // File-based engage: prime the TTL cache, touch the file, and query via
  // frame — the forced re-check must see it instantly, TTL notwithstanding.
  EXPECT_FALSE(store.shutoff_active());
  FILE* f = std::fopen(file.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  {
    auto cli = LeptonClient::connect(srv.bound_address());
    auto q = cli.shutoff(ShutoffOp::kQuery);
    ASSERT_TRUE(q.ok());
    EXPECT_TRUE(q.shutoff_engaged)
        << "SHUTOFF query must bypass the 250 ms TTL cache";
    auto cli2 = LeptonClient::connect(srv.bound_address());
    auto refused = cli2.encode({jpeg.data(), jpeg.size()});
    ASSERT_TRUE(refused.transport_ok);
    EXPECT_EQ(refused.code, ExitCode::kServerShutdown);
  }
  ::unlink(file.c_str());
  {
    auto cli = LeptonClient::connect(srv.bound_address());
    auto q = cli.shutoff(ShutoffOp::kQuery);
    ASSERT_TRUE(q.ok());
    EXPECT_FALSE(q.shutoff_engaged);
  }
  srv.stop();
}

}  // namespace

// Streaming-session tests (session.h): slice-equivalence against the
// whole-buffer path (fuzzed partitions, 1-byte feeds, truncation at
// structural boundaries), the kShortRead/kTimeout classification rules and
// the lowest-index segment failure rule, early prefix emission, mid-stream
// segment hand-off (feed() never waits on a segment decode; a dropped
// session waits for its segments), per-session deadline isolation on a
// shared CodecContext, the resumable JPEG header probe, and the satellite
// plumbing (chunk DecodeStats, store shutoff TTL).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "corpus/corpus.h"
#include "jpeg/jfif_builder.h"
#include "lepton/lepton.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/zlib_util.h"

namespace jf = lepton::jpegfmt;
using lepton::util::ExitCode;

namespace {

jf::RasterImage photo_like(int w, int h, std::uint64_t seed) {
  jf::RasterImage img;
  img.width = w;
  img.height = h;
  img.channels = 3;
  img.pixels.resize(static_cast<std::size_t>(w) * h * 3);
  lepton::util::Rng rng(seed);
  double cx = w * rng.uniform(0.2, 0.8), cy = h * rng.uniform(0.2, 0.8);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double d = std::sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy));
      for (int c = 0; c < 3; ++c) {
        double v = 110 + 70 * std::sin(d / (10.0 + 5 * c)) +
                   0.3 * static_cast<double>(rng.below(30));
        img.pixels[(static_cast<std::size_t>(y) * w + x) * 3 + c] =
            static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
      }
    }
  }
  return img;
}

std::vector<std::uint8_t> make_jpeg(int w, int h, std::uint64_t seed) {
  return jf::build_jfif(photo_like(w, h, seed), {});
}

std::vector<std::uint8_t> encode_or_die(std::span<const std::uint8_t> jpeg,
                                        int threads) {
  lepton::EncodeOptions opt;
  opt.force_threads = threads;
  auto enc = lepton::encode_jpeg(jpeg, opt);
  EXPECT_TRUE(enc.ok()) << enc.message;
  return std::move(enc.data);
}

// Feeds `bytes` to a fresh DecodeSession in the given slice sizes.
ExitCode stream_decode(std::span<const std::uint8_t> bytes,
                       const std::vector<std::size_t>& slices,
                       std::vector<std::uint8_t>* out,
                       lepton::DecodeStats* stats = nullptr,
                       lepton::CodecContext* ctx = nullptr) {
  lepton::VectorSink sink;
  lepton::DecodeSession session(sink, {}, ctx);
  std::size_t off = 0;
  for (std::size_t n : slices) {
    if (n > bytes.size() - off) n = bytes.size() - off;
    if (session.feed(bytes.subspan(off, n)) != ExitCode::kSuccess) break;
    off += n;
  }
  // Whatever a partition did not cover arrives as one final slice.
  if (off < bytes.size()) session.feed(bytes.subspan(off));
  ExitCode code = session.finish(stats);
  *out = std::move(sink.data);
  return code;
}

// leptond's DECODE body shape: RequestOptions::slice_bytes (64 KiB) DATA
// frames.
constexpr std::size_t kFrame = 64 << 10;

// Encoded with 4 segments, its container spans two kFrame slices, and
// three of the four segment streams complete inside the first one.
std::vector<std::uint8_t> large_jpeg(std::uint64_t seed) {
  return make_jpeg(1024, 1024, seed);
}

// Offset of the last kFrame slice of a `size`-byte stream.
std::size_t last_frame_offset(std::size_t size) {
  return (size - 1) / kFrame * kFrame;
}

// Feeds bytes [0, end) to `session` in kFrame slices.
ExitCode feed_frames(lepton::DecodeSession& session,
                     std::span<const std::uint8_t> bytes, std::size_t end) {
  for (std::size_t off = 0; off < end; off += kFrame) {
    ExitCode code =
        session.feed(bytes.subspan(off, std::min(kFrame, end - off)));
    if (code != ExitCode::kSuccess) return code;
  }
  return ExitCode::kSuccess;
}

std::vector<std::size_t> fuzz_partition(std::size_t total,
                                        lepton::util::Rng& rng) {
  std::vector<std::size_t> slices;
  std::size_t covered = 0;
  while (covered < total) {
    std::size_t n;
    switch (rng.below(4)) {
      case 0: n = 1; break;
      case 1: n = 1 + rng.below(7); break;
      case 2: n = 1 + rng.below(600); break;
      default: n = 1 + rng.below(total); break;
    }
    slices.push_back(n);
    covered += n;
  }
  return slices;
}

}  // namespace

// ---- slice equivalence ------------------------------------------------------

TEST(DecodeSession, FuzzedPartitionsMatchWholeBuffer) {
  for (int threads : {1, 4}) {
    auto file = make_jpeg(192, 160, 900 + threads);
    auto lep = encode_or_die({file.data(), file.size()}, threads);

    lepton::DecodeStats whole_stats;
    lepton::VectorSink whole;
    ASSERT_EQ(lepton::decode_lepton({lep.data(), lep.size()}, whole, {},
                                    lepton::default_context(), &whole_stats),
              ExitCode::kSuccess);
    ASSERT_EQ(whole.data, file);
    EXPECT_TRUE(whole_stats.payload_exhausted);

    lepton::util::Rng rng(77 + static_cast<std::uint64_t>(threads));
    for (int trial = 0; trial < 8; ++trial) {
      auto slices = fuzz_partition(lep.size(), rng);
      std::vector<std::uint8_t> out;
      lepton::DecodeStats stats;
      ASSERT_EQ(stream_decode({lep.data(), lep.size()}, slices, &out, &stats),
                ExitCode::kSuccess)
          << "threads=" << threads << " trial=" << trial;
      EXPECT_EQ(out, file) << "partition must not change the bytes";
      EXPECT_EQ(stats.payload_exhausted, whole_stats.payload_exhausted);
      EXPECT_EQ(stats.payload_overrun, whole_stats.payload_overrun);
      EXPECT_EQ(stats.payload_bytes, whole_stats.payload_bytes);
      EXPECT_EQ(stats.payload_consumed, whole_stats.payload_consumed);
    }
  }
}

TEST(DecodeSession, OneByteFeedsMatchWholeBuffer) {
  auto file = make_jpeg(96, 96, 901);
  auto lep = encode_or_die({file.data(), file.size()}, 2);
  std::vector<std::size_t> ones(lep.size(), 1);
  std::vector<std::uint8_t> out;
  ASSERT_EQ(stream_decode({lep.data(), lep.size()}, ones, &out),
            ExitCode::kSuccess);
  EXPECT_EQ(out, file);
}

TEST(EncodeSession, FuzzedPartitionsMatchWholeBuffer) {
  auto file = make_jpeg(200, 152, 902);
  lepton::EncodeOptions opt;
  opt.force_threads = 4;
  auto whole = lepton::encode_jpeg({file.data(), file.size()}, opt);
  ASSERT_TRUE(whole.ok());

  lepton::util::Rng rng(42);
  for (int trial = 0; trial < 6; ++trial) {
    auto slices = trial == 0 ? std::vector<std::size_t>(file.size(), 1)
                             : fuzz_partition(file.size(), rng);
    lepton::EncodeSession session(opt);
    std::size_t off = 0;
    for (std::size_t n : slices) {
      if (n > file.size() - off) n = file.size() - off;
      ASSERT_EQ(session.feed({file.data() + off, n}), ExitCode::kSuccess);
      off += n;
    }
    lepton::VectorSink sink;
    ASSERT_EQ(session.finish(sink), ExitCode::kSuccess);
    EXPECT_EQ(sink.data, whole.data)
        << "encode must be partition-independent (trial " << trial << ")";
  }
}

// ---- truncation and hostile input ------------------------------------------

TEST(DecodeSession, TruncationAtEveryBoundaryIsShortRead) {
  auto file = make_jpeg(64, 64, 903);
  auto lep = encode_or_die({file.data(), file.size()}, 2);
  // Every cut in the structural front matter, then a stride through the
  // payload (a full per-byte sweep re-decodes handed-off segments per cut).
  std::size_t stride = lep.size() > 2048 ? lep.size() / 512 : 1;
  for (std::size_t cut = 0; cut < lep.size();
       cut += (cut < 64 ? 1 : stride)) {
    lepton::VectorSink sink;
    lepton::DecodeSession session(sink);
    session.feed({lep.data(), cut});
    EXPECT_EQ(session.finish(), ExitCode::kShortRead) << "cut=" << cut;
  }
  // The whole-buffer wrapper classifies identically.
  for (std::size_t cut : {std::size_t{3}, lep.size() / 2, lep.size() - 1}) {
    EXPECT_EQ(lepton::decode_lepton({lep.data(), cut}).code,
              ExitCode::kShortRead);
  }
}

TEST(DecodeSession, HostileStreamsClassifyLikeOneShot) {
  auto file = make_jpeg(96, 96, 904);
  auto lep = encode_or_die({file.data(), file.size()}, 2);
  lepton::util::Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    auto mutated = lep;
    for (int i = 0; i < 6; ++i) {
      mutated[rng.below(mutated.size())] =
          static_cast<std::uint8_t>(rng.below(256));
    }
    auto one_shot = lepton::decode_lepton({mutated.data(), mutated.size()});
    auto slices = fuzz_partition(mutated.size(), rng);
    std::vector<std::uint8_t> out;
    ExitCode sliced =
        stream_decode({mutated.data(), mutated.size()}, slices, &out);
    EXPECT_EQ(sliced, one_shot.code)
        << "classification must be partition-independent (trial " << trial
        << ")";
    if (sliced == ExitCode::kSuccess) EXPECT_EQ(out, one_shot.data);
  }
}

TEST(DecodeSession, HostileFourSegmentStreamsClassifyLikeOneShot) {
  // Segments now decode concurrently while the stream is still arriving,
  // and several of a mutated container's segments can fail, with different
  // codes. The rule is the one-shot rule on every path: the code of the
  // lowest-index failing segment, whatever order the segments finished in.
  auto file = large_jpeg(916);
  auto lep = encode_or_die({file.data(), file.size()}, 4);
  std::vector<std::size_t> frames(lep.size() / kFrame + 1, kFrame);
  {
    lepton::VectorSink sink;
    lepton::DecodeSession session(sink);
    ASSERT_EQ(feed_frames(session, {lep.data(), lep.size()},
                          last_frame_offset(lep.size())),
              ExitCode::kSuccess);
    ASSERT_GT(session.segments_decoded(), 0u)
        << "the unmutated stream must hand segments off mid-stream";
  }
  lepton::util::Rng rng(6);
  for (int trial = 0; trial < 12; ++trial) {
    auto mutated = lep;
    for (int i = 0; i < 6; ++i) {
      mutated[rng.below(mutated.size())] =
          static_cast<std::uint8_t>(rng.below(256));
    }
    auto one_shot = lepton::decode_lepton({mutated.data(), mutated.size()});
    ASSERT_EQ(lepton::decode_lepton({mutated.data(), mutated.size()}).code,
              one_shot.code)
        << "one-shot classification must be deterministic (trial " << trial
        << ")";
    auto fuzzed = fuzz_partition(mutated.size(), rng);
    for (int rep = 0; rep < 2; ++rep) {
      for (const auto* slices : {&frames, &fuzzed}) {
        std::vector<std::uint8_t> out;
        ExitCode code =
            stream_decode({mutated.data(), mutated.size()}, *slices, &out);
        EXPECT_EQ(code, one_shot.code)
            << (slices == &frames ? "64 KiB slices" : "fuzzed partition")
            << " must classify like one-shot (trial " << trial << ", rep "
            << rep << ")";
        if (code == ExitCode::kSuccess) EXPECT_EQ(out, one_shot.data);
      }
    }
  }
}

TEST(DecodeSession, LowestIndexFailingSegmentWinsOnEveryPath) {
  // Two segments of one container fail with different codes: an all-zero
  // stream decodes to too few bytes (kNotAnImage), an all-0xFF stream to a
  // symbol its Huffman tables cannot code (kImpossible). Whichever of them
  // finishes first, every path reports the lower-index segment's code.
  auto file = large_jpeg(919);
  auto lep = encode_or_die({file.data(), file.size()}, 4);
  const auto parsed = lepton::core::parse_container({lep.data(), lep.size()});
  ASSERT_EQ(parsed.arith.size(), 4u);
  lepton::DecodeOptions serial;
  serial.run_parallel = false;
  lepton::util::Rng rng(8);
  for (auto [zeros, ones] : {std::pair{1, 2}, std::pair{2, 1}}) {
    auto arith = parsed.arith;
    std::fill(arith[zeros].begin(), arith[zeros].end(), 0x00);
    std::fill(arith[ones].begin(), arith[ones].end(), 0xFF);
    const auto bad = lepton::core::serialize_container(parsed.header, arith);
    const ExitCode want =
        zeros < ones ? ExitCode::kNotAnImage : ExitCode::kImpossible;
    std::vector<std::size_t> frames(bad.size() / kFrame + 1, kFrame);
    for (int rep = 0; rep < 2; ++rep) {
      EXPECT_EQ(lepton::decode_lepton({bad.data(), bad.size()}).code, want)
          << "one-shot, zeros in segment " << zeros;
      EXPECT_EQ(lepton::decode_lepton({bad.data(), bad.size()}, serial).code,
                want)
          << "serial one-shot, zeros in segment " << zeros;
      std::vector<std::uint8_t> out;
      EXPECT_EQ(stream_decode({bad.data(), bad.size()}, frames, &out), want)
          << "64 KiB slices, zeros in segment " << zeros;
      EXPECT_EQ(stream_decode({bad.data(), bad.size()},
                              fuzz_partition(bad.size(), rng), &out),
                want)
          << "fuzzed partition, zeros in segment " << zeros;
    }
  }
}

TEST(DecodeSession, HostileOutputLengthIsNotReserved) {
  // A segment's declared output length sizes its buffer in the emitter,
  // but only up to twice the bytes of its stream: a header declaring a
  // 1 TiB segment still classifies as the short segment it is.
  auto file = large_jpeg(920);
  auto lep = encode_or_die({file.data(), file.size()}, 4);
  auto parsed = lepton::core::parse_container({lep.data(), lep.size()});
  ASSERT_EQ(parsed.header.segments.size(), 4u);
  parsed.header.segments[2].out_len = std::uint64_t{1} << 40;
  const auto bad =
      lepton::core::serialize_container(parsed.header, parsed.arith);
  std::vector<std::size_t> frames(bad.size() / kFrame + 1, kFrame);
  EXPECT_EQ(lepton::decode_lepton({bad.data(), bad.size()}).code,
            ExitCode::kNotAnImage);
  std::vector<std::uint8_t> out;
  EXPECT_EQ(stream_decode({bad.data(), bad.size()}, frames, &out),
            ExitCode::kNotAnImage);
}

TEST(DecodeSession, NonLeptonStreamRejectedAtFirstBytes) {
  lepton::VectorSink sink;
  lepton::DecodeSession session(sink);
  std::uint8_t junk[2] = {'P', 'K'};
  EXPECT_EQ(session.feed({junk, 1}), ExitCode::kNotAnImage)
      << "a non-Lepton stream dies on its first byte, not at finish";
  EXPECT_EQ(session.finish(), ExitCode::kNotAnImage);
}

// ---- streaming behaviour ----------------------------------------------------

TEST(DecodeSession, PrefixEmittedBeforePayloadArrives) {
  auto file = make_jpeg(256, 256, 905);
  auto lep = encode_or_die({file.data(), file.size()}, 4);
  lepton::VectorSink sink;
  lepton::DecodeSession session(sink);
  std::size_t fed_at_first_output = 0;
  for (std::size_t off = 0; off < lep.size(); ++off) {
    ASSERT_EQ(session.feed({lep.data() + off, 1}), ExitCode::kSuccess);
    if (fed_at_first_output == 0 && !sink.data.empty()) {
      fed_at_first_output = off + 1;
    }
  }
  ASSERT_EQ(session.finish(), ExitCode::kSuccess);
  EXPECT_EQ(sink.data, file);
  ASSERT_GT(fed_at_first_output, 0u);
  EXPECT_LT(fed_at_first_output, lep.size() / 2)
      << "the verbatim JPEG-header prefix must stream out while the "
         "arithmetic payload is still in flight";
}

TEST(DecodeSession, EagerSegmentsDecodeWhileTailInFlight) {
  auto file = make_jpeg(256, 256, 906);
  auto lep = encode_or_die({file.data(), file.size()}, 4);
  lepton::VectorSink sink;
  lepton::DecodeSession session(sink);
  // Hold back the final slice: some segments' streams are complete and must
  // have been handed to the pool before finish().
  std::size_t hold = 64;
  ASSERT_LT(hold, lep.size());
  ASSERT_EQ(session.feed({lep.data(), lep.size() - hold}), ExitCode::kSuccess);
  std::size_t decoded_mid_stream = session.segments_decoded();
  ASSERT_EQ(session.feed({lep.data() + lep.size() - hold, hold}),
            ExitCode::kSuccess);
  ASSERT_EQ(session.finish(), ExitCode::kSuccess);
  EXPECT_EQ(sink.data, file);
  EXPECT_GT(decoded_mid_stream, 0u)
      << "segments with complete streams start before the container ends";
}

TEST(DecodeSession, TruncatedFinishStillReportsEagerConsumptionFacts) {
  auto file = make_jpeg(256, 256, 914);
  auto lep = encode_or_die({file.data(), file.size()}, 4);
  lepton::VectorSink sink;
  lepton::DecodeSession session(sink);
  // Everything but the tail: earlier segments complete and are handed to the
  // pool, the last stream stays open. finish() waits for them, so what they
  // learned reaches the stats.
  ASSERT_EQ(session.feed({lep.data(), lep.size() - 16}), ExitCode::kSuccess);
  ASSERT_GT(session.segments_decoded(), 0u);
  lepton::DecodeStats stats;
  EXPECT_EQ(session.finish(&stats), ExitCode::kShortRead);
  EXPECT_GT(stats.payload_consumed, 0u)
      << "failure paths must not discard what the handed-off segments learned";
}

namespace {

// Lets the first append (the verbatim header prefix, emitted by feed()
// itself) through, then holds every later append until release().
class GateSink : public lepton::ByteSink {
 public:
  void append(std::span<const std::uint8_t> b) override {
    std::unique_lock<std::mutex> lk(mu_);
    if (appends_++ > 0) cv_.wait(lk, [this] { return open_; });
    data_.insert(data_.end(), b.begin(), b.end());
  }
  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  std::vector<std::uint8_t> data() {
    std::lock_guard<std::mutex> lk(mu_);
    return data_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int appends_ = 0;
  std::vector<std::uint8_t> data_;
};

// Counts appends and stalls each one after the prefix for a moment, so a
// handed-off segment spends its decode inside append().
class SlowSink : public lepton::ByteSink {
 public:
  void append(std::span<const std::uint8_t>) override {
    busy.fetch_add(1);
    if (appends.fetch_add(1) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    busy.fetch_sub(1);
  }
  std::atomic<int> appends{0};
  std::atomic<int> busy{0};  // append() calls in progress
};

}  // namespace

TEST(DecodeSession, FeedDoesNotWaitOnSegmentDecode) {
  // leptond feeds a DECODE body frame by frame on its connection thread.
  // A segment whose stream completes mid-body must decode on the pool, not
  // inside feed(): with the sink held shut, every segment decode stalls,
  // and feed() must still come back for the next frame.
  auto file = large_jpeg(917);
  auto lep = encode_or_die({file.data(), file.size()}, 4);
  const std::size_t last = last_frame_offset(lep.size());
  lepton::CodecContext ctx(4);
  GateSink sink;
  lepton::DecodeSession session(sink, {}, &ctx);
  auto fed = std::async(std::launch::async, [&] {
    return feed_frames(session, {lep.data(), lep.size()}, last);
  });
  const bool returned =
      fed.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  sink.release();  // either way: a feed stuck in the sink must not hang
  EXPECT_TRUE(returned)
      << "feed() waited on a segment decode held up by the sink";
  ASSERT_EQ(fed.get(), ExitCode::kSuccess);
  EXPECT_GT(session.segments_decoded(), 0u)
      << "segments with complete streams are handed off mid-stream";
  ASSERT_EQ(session.feed({lep.data() + last, lep.size() - last}),
            ExitCode::kSuccess);
  ASSERT_EQ(session.finish(), ExitCode::kSuccess);
  EXPECT_EQ(sink.data(), file);
}

TEST(DecodeSession, DroppedUnfinishedSessionWaitsForHandedOffSegments) {
  // The service's hang-up path: the request's control is cancelled and the
  // session destroyed without finish(). One pool worker, so one handed-off
  // segment is running and the others still queued when the session goes;
  // the running one must finish before the destructor returns, and the
  // queued ones must never touch the dead session (ASan/TSan keep the
  // second half honest).
  auto file = large_jpeg(918);
  auto lep = encode_or_die({file.data(), file.size()}, 4);
  lepton::CodecContext ctx(1);
  auto sink = std::make_unique<SlowSink>();
  auto session = std::make_unique<lepton::DecodeSession>(
      *sink, lepton::DecodeOptions{}, &ctx);
  ASSERT_EQ(feed_frames(*session, {lep.data(), lep.size()},
                        last_frame_offset(lep.size())),
            ExitCode::kSuccess);
  ASSERT_GE(session->segments_decoded(), 2u);
  // Drop the session only once the first handed-off segment is writing.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sink->appends.load() < 3 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  ASSERT_GE(sink->appends.load(), 3);
  session->control().request_cancel();
  session.reset();
  EXPECT_EQ(sink->busy.load(), 0)
      << "a segment was still writing when its session was destroyed";
  const int appends_at_drop = sink->appends.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(sink->appends.load(), appends_at_drop)
      << "a segment wrote to the sink after its session was destroyed";
  sink.reset();

  // The context's worker is free again for the next request.
  lepton::VectorSink out;
  lepton::DecodeSession next(out, {}, &ctx);
  ASSERT_EQ(feed_frames(next, {lep.data(), lep.size()}, lep.size()),
            ExitCode::kSuccess);
  ASSERT_EQ(next.finish(), ExitCode::kSuccess);
  EXPECT_EQ(out.data, file);
}

TEST(Sessions, LateFeedDoesNotPoisonFinishedSession) {
  auto file = make_jpeg(96, 96, 915);
  auto lep = encode_or_die({file.data(), file.size()}, 2);
  lepton::VectorSink sink;
  lepton::DecodeSession session(sink);
  session.feed({lep.data(), lep.size()});
  ASSERT_EQ(session.finish(), ExitCode::kSuccess);
  std::uint8_t stray = 0;
  EXPECT_EQ(session.feed({&stray, 1}), ExitCode::kImpossible);
  EXPECT_EQ(session.finish(), ExitCode::kSuccess)
      << "a stray late slice must not rewrite a finished session's outcome";

  lepton::EncodeSession enc;
  enc.feed({file.data(), file.size()});
  lepton::VectorSink out;
  ASSERT_EQ(enc.finish(out), ExitCode::kSuccess);
  EXPECT_EQ(enc.feed({&stray, 1}), ExitCode::kImpossible);
  EXPECT_EQ(enc.finish(out), ExitCode::kSuccess);
}

TEST(ContainerParser, HostileArithLengthsDoNotReserveUnbounded) {
  // A few-hundred-KB container header declaring 4096 segments of 4 GiB
  // each must not make the parser reserve terabytes before the decode
  // gate ever runs; reservation is budget-capped and real memory grows
  // only with bytes actually fed.
  lepton::util::Serializer p;
  p.u8(0);               // is_chunk
  p.u64(1000);           // file_total_size
  p.u64(0);              // chunk_off
  p.u64(1000);           // chunk_len
  p.u64(100);            // scan_begin_abs
  p.u8(1);               // pad_bit
  p.u32(0);              // rst_count
  p.u8(0);               // model flags
  std::vector<std::uint8_t> jpeg_header(16, 0x11);
  p.blob({jpeg_header.data(), jpeg_header.size()});
  p.u64(0);              // prefix_off
  p.u64(0);              // prefix_len
  p.blob({});            // suffix
  constexpr std::uint32_t kSegs = 4096;
  p.u32(kSegs);
  for (std::uint32_t i = 0; i < kSegs; ++i) {
    p.u32(0);            // start_row
    p.u32(1);            // end_row
    p.u64(0);            // handover byte_off
    p.u8(0);             // bit_off
    p.u8(0);             // partial_byte
    for (int k = 0; k < 4; ++k) p.i16(0);  // dc_pred
    p.u32(0);            // mcus_done
    p.u32(0);            // rst_seen
    p.u64(1);            // out_len
    p.blob({});          // prepend
    p.u32(0xFFFFFFFFu);  // declared arith length: 4 GiB
  }
  auto zpayload =
      lepton::util::zlib_compress({p.data().data(), p.size()}, 6);

  lepton::util::Serializer s;
  s.u8(0xCF);
  s.u8(0x84);
  s.u8(2);               // kFormatVersion
  s.u8(0);               // flags
  s.u32(kSegs);
  for (int i = 0; i < 12; ++i) s.u8(0);  // revision
  s.u32(1000);           // output size
  s.blob({zpayload.data(), zpayload.size()});
  auto bytes = s.take();

  lepton::core::ContainerParser parser;
  EXPECT_EQ(parser.feed({bytes.data(), bytes.size()}), ExitCode::kSuccess);
  EXPECT_TRUE(parser.header_ready());
  EXPECT_FALSE(parser.complete());
  std::size_t reserved = 0;
  for (std::uint32_t i = 0; i < kSegs; ++i) {
    reserved += parser.segment_arith(i).capacity();
  }
  EXPECT_LT(reserved, 16u << 20)
      << "eager reservation must be budget-capped against hostile headers";
}

// ---- cancellation and deadlines --------------------------------------------

TEST(DecodeSession, CancellationClassifiesTimeout) {
  auto file = make_jpeg(96, 96, 907);
  auto lep = encode_or_die({file.data(), file.size()}, 2);
  lepton::VectorSink sink;
  lepton::DecodeSession session(sink);
  std::size_t half = lep.size() / 2;
  ASSERT_EQ(session.feed({lep.data(), half}), ExitCode::kSuccess);
  session.control().request_cancel();
  EXPECT_EQ(session.feed({lep.data() + half, lep.size() - half}),
            ExitCode::kTimeout);
  EXPECT_EQ(session.finish(), ExitCode::kTimeout);
}

TEST(EncodeSession, CancellationClassifiesTimeout) {
  auto file = make_jpeg(96, 96, 908);
  lepton::EncodeSession session;
  ASSERT_EQ(session.feed({file.data(), file.size()}), ExitCode::kSuccess);
  session.control().request_cancel();
  lepton::VectorSink sink;
  EXPECT_EQ(session.finish(sink), ExitCode::kTimeout);
  EXPECT_TRUE(sink.data.empty());
}

TEST(Sessions, DeadlineAbortsAllSegmentsButSparesOtherSessions) {
  // Two sessions share one CodecContext. Session A's deadline trips while
  // its segments are mid-decode; every segment of A stops with kTimeout.
  // Session B, running concurrently on the same pool, is untouched.
  auto file = lepton::corpus::jpeg_of_size(300 << 10, 909);
  lepton::EncodeOptions eopt;
  eopt.force_threads = 8;
  auto enc = lepton::encode_jpeg({file.data(), file.size()}, eopt);
  ASSERT_TRUE(enc.ok());
  auto& lep = enc.data;

  lepton::CodecContext ctx(4);

  lepton::VectorSink sink_a;
  lepton::DecodeSession a(sink_a, {}, &ctx);
  ASSERT_EQ(a.feed({lep.data(), lep.size()}), ExitCode::kSuccess);
  // Deadline far shorter than the ~tens-of-ms this decode needs: it is set
  // before finish() and fires while segment workers are in their MCU-row
  // loops.
  a.control().set_deadline_after(std::chrono::milliseconds(2));

  ExitCode code_b = ExitCode::kImpossible;
  std::vector<std::uint8_t> out_b;
  std::thread t([&] {
    lepton::VectorSink sink_b;
    lepton::DecodeSession b(sink_b, {}, &ctx);
    b.feed({lep.data(), lep.size()});
    code_b = b.finish();
    out_b = std::move(sink_b.data);
  });

  EXPECT_EQ(a.finish(), ExitCode::kTimeout);
  t.join();
  EXPECT_EQ(code_b, ExitCode::kSuccess)
      << "a tripped session must not poison its neighbours";
  EXPECT_EQ(out_b, file);

  // The shared context still works for session A's owner afterwards.
  lepton::VectorSink sink_c;
  lepton::DecodeSession c(sink_c, {}, &ctx);
  c.feed({lep.data(), lep.size()});
  EXPECT_EQ(c.finish(), ExitCode::kSuccess);
  EXPECT_EQ(sink_c.data, file);
}

TEST(EncodeSession, DeadlineMidEncodeClassifiesTimeout) {
  auto file = lepton::corpus::jpeg_of_size(300 << 10, 910);
  lepton::EncodeSession session;
  ASSERT_EQ(session.feed({file.data(), file.size()}), ExitCode::kSuccess);
  session.control().set_deadline_after(std::chrono::milliseconds(2));
  lepton::VectorSink sink;
  EXPECT_EQ(session.finish(sink), ExitCode::kTimeout);
}

// ---- header probe -----------------------------------------------------------

TEST(EncodeSession, ProbeRejectsProgressiveMidUpload) {
  auto file = make_jpeg(128, 128, 911);
  for (std::size_t i = 0; i + 1 < file.size(); ++i) {
    if (file[i] == 0xFF && file[i + 1] == 0xC0) {
      file[i + 1] = 0xC2;
      break;
    }
  }
  lepton::EncodeSession session;
  std::size_t rejected_at = 0;
  ExitCode code = ExitCode::kSuccess;
  for (std::size_t off = 0; off < file.size(); ++off) {
    code = session.feed({file.data() + off, 1});
    if (code != ExitCode::kSuccess) {
      rejected_at = off + 1;
      break;
    }
  }
  EXPECT_EQ(code, ExitCode::kProgressive);
  ASSERT_GT(rejected_at, 0u);
  EXPECT_LT(rejected_at, file.size() / 8)
      << "the SOF marker is near the front; rejection must not wait for "
         "the rest of the upload";
}

TEST(EncodeSession, ProbeRejectsNonJpegOnFirstByte) {
  lepton::EncodeSession session;
  std::uint8_t junk = 'x';
  EXPECT_EQ(session.feed({&junk, 1}), ExitCode::kNotAnImage);
}

TEST(EncodeSession, ProbeMatchesOneShotClassification) {
  // Corpus sweep: feeding byte-wise and finishing must classify exactly as
  // the whole-buffer encoder, for admissible and inadmissible files alike.
  lepton::corpus::CorpusOptions copts;
  copts.valid_files = 3;
  copts.min_bytes = 8 << 10;
  copts.max_bytes = 24 << 10;
  auto corpus = lepton::corpus::build_corpus(copts);
  for (const auto& f : corpus) {
    auto one_shot = lepton::encode_jpeg({f.bytes.data(), f.bytes.size()});
    lepton::EncodeSession session;
    for (std::size_t off = 0; off < f.bytes.size(); off += 997) {
      std::size_t n = std::min<std::size_t>(997, f.bytes.size() - off);
      if (session.feed({f.bytes.data() + off, n}) != ExitCode::kSuccess) break;
    }
    lepton::VectorSink sink;
    ExitCode code = session.finish(sink);
    EXPECT_EQ(code, one_shot.code) << f.label;
    if (one_shot.ok()) EXPECT_EQ(sink.data, one_shot.data) << f.label;
  }
}

// ---- satellite plumbing -----------------------------------------------------

TEST(ChunkCodec, DecodeChunkThreadsDecodeStats) {
  auto file = make_jpeg(256, 256, 912);
  lepton::ChunkCodec cc({}, 16384);
  auto set = cc.encode_chunks({file.data(), file.size()});
  ASSERT_TRUE(set.ok());
  for (const auto& ch : set.chunks) {
    lepton::DecodeStats stats;
    auto r = cc.decode_chunk({ch.data(), ch.size()}, {}, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(stats.payload_exhausted)
        << "a well-formed chunk consumes its payload exactly";
    EXPECT_FALSE(stats.payload_overrun);
    EXPECT_EQ(stats.payload_consumed, stats.payload_bytes);
  }
}

TEST(TransparentStore, GetThreadsDecodeStats) {
  auto file = make_jpeg(96, 96, 913);
  lepton::TransparentStore store;
  auto obj = store.put({file.data(), file.size()});
  ASSERT_EQ(obj.kind, lepton::StorageKind::kLepton);
  lepton::DecodeStats stats;
  auto back = store.get(obj, &stats);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.data, file);
  EXPECT_TRUE(stats.payload_exhausted);
}

TEST(TransparentStore, ShutoffFileStatIsCachedWithTtl) {
  std::string path = ::testing::TempDir() + "lepton_shutoff_ttl_test";
  std::remove(path.c_str());
  lepton::TransparentStore store;
  store.set_shutoff_file(path);
  EXPECT_FALSE(store.shutoff_active());

  // Trip the switch: the cached "off" answer may persist up to the TTL —
  // §5.7 only promises fleet-wide shutoff within seconds.
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(lepton::TransparentStore::kShutoffTtlNs) +
      std::chrono::milliseconds(50));
  EXPECT_TRUE(store.shutoff_active()) << "flip visible after the TTL";

  // Resetting the path invalidates the cache immediately.
  std::remove(path.c_str());
  store.set_shutoff_file(path);
  EXPECT_FALSE(store.shutoff_active());

  // Concurrent readers while the file flips: no torn states, and every
  // answer is one of the two valid ones (thread-safety smoke under TSan/
  // ASan builds).
  FILE* g = std::fopen(path.c_str(), "w");
  ASSERT_NE(g, nullptr);
  std::fclose(g);
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&store] {
      for (int k = 0; k < 1000; ++k) (void)store.shutoff_active();
    });
  }
  for (auto& t : readers) t.join();
  std::remove(path.c_str());
}

TEST(RunControl, DeadlineAndCancelSemantics) {
  lepton::RunControl rc;
  EXPECT_FALSE(rc.tripped());
  rc.set_deadline_after(std::chrono::hours(1));
  EXPECT_FALSE(rc.tripped());
  rc.set_deadline(lepton::RunControl::Clock::now() -
                  std::chrono::milliseconds(1));
  EXPECT_TRUE(rc.tripped());
  rc.clear_deadline();
  EXPECT_FALSE(rc.tripped());
  rc.request_cancel();
  EXPECT_TRUE(rc.tripped());
  rc.reset();
  EXPECT_FALSE(rc.tripped());
}

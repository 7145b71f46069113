// Session-layer microbench: the streaming API must not tax the one-shot
// path it now implements. Measures (a) whole-buffer decode/encode through
// the session-backed wrappers, (b) the same work fed in network-sized
// slices — also in the shape leptond serves, multi-segment containers in
// 64 KiB DATA frames — and (c) time-to-first-byte under paced arrival — the
// §3.4 claim that decode output starts before the container has fully
// arrived.
//
// Usage: micro_session [--full]
#include <algorithm>

#include "bench_common.h"
#include "lepton/lepton.h"
#include "server/client.h"
#include "util/rng.h"

namespace {

struct Totals {
  double seconds = 0;
  std::size_t bytes = 0;
  double mb_s() const { return bytes / 1e6 / (seconds > 0 ? seconds : 1e-9); }
};

}  // namespace

int main(int argc, char** argv) {
  bool full = bench::want_full(argc, argv);
  bench::header("micro_session: streaming-session overhead and TTFB",
                "§3.4 network-paced decode; one-shot surface is a session "
                "wrapper, so any gap here is pure API overhead");

  const auto& corpus = bench::corpus(full);
  lepton::CodecContext ctx(8);
  lepton::util::Rng rng(11);

  // Pre-encode the corpus once.
  std::vector<std::vector<std::uint8_t>> leps;
  std::size_t jpeg_bytes = 0;
  for (const auto& f : corpus) {
    auto enc = ctx.encode({f.bytes.data(), f.bytes.size()});
    if (!enc.ok()) continue;
    jpeg_bytes += f.bytes.size();
    leps.push_back(std::move(enc.data));
  }

  // (a) whole-buffer decode through the wrapper (single feed + finish).
  Totals one_shot;
  one_shot.bytes = jpeg_bytes;
  one_shot.seconds = bench::best_of(3, [&] {
    for (const auto& lep : leps) {
      lepton::VectorSink sink;
      (void)ctx.decode({lep.data(), lep.size()}, sink);
    }
  });

  // (b) the same decode fed in ~1500-byte slices.
  Totals sliced;
  sliced.bytes = jpeg_bytes;
  sliced.seconds = bench::best_of(3, [&] {
    for (const auto& lep : leps) {
      lepton::VectorSink sink;
      lepton::DecodeSession s(sink, {}, &ctx);
      std::size_t off = 0;
      while (off < lep.size()) {
        std::size_t n = std::min<std::size_t>(1 + rng.below(1500),
                                              lep.size() - off);
        if (s.feed({lep.data() + off, n}) != lepton::util::ExitCode::kSuccess)
          break;
        off += n;
      }
      (void)s.finish();
    }
  });

  // (b') leptond's DECODE shape: 4-segment containers fed in
  // RequestOptions::slice_bytes (64 KiB) slices, against the one-shot
  // decode of the same containers. Segments whose streams complete before
  // the last slice are the ones the session hands to the pool mid-stream.
  lepton::EncodeOptions four_segments;
  four_segments.force_threads = 4;
  const std::size_t frame = lepton::server::RequestOptions{}.slice_bytes;
  std::vector<std::vector<std::uint8_t>> leps4;
  Totals one_shot4, framed4;
  for (const auto& f : corpus) {
    auto enc = ctx.encode({f.bytes.data(), f.bytes.size()}, four_segments);
    if (!enc.ok()) continue;
    one_shot4.bytes += f.bytes.size();
    leps4.push_back(std::move(enc.data));
  }
  framed4.bytes = one_shot4.bytes;
  auto decode_one_shot4 = [&] {
    for (const auto& lep : leps4) {
      lepton::VectorSink sink;
      (void)ctx.decode({lep.data(), lep.size()}, sink);
    }
  };
  auto decode_framed4 = [&] {
    for (const auto& lep : leps4) {
      lepton::VectorSink sink;
      lepton::DecodeSession s(sink, {}, &ctx);
      for (std::size_t off = 0; off < lep.size(); off += frame) {
        std::size_t n = std::min(frame, lep.size() - off);
        if (s.feed({lep.data() + off, n}) != lepton::util::ExitCode::kSuccess)
          break;
      }
      (void)s.finish();
    }
  };
  // Best of 3, the two sides interleaved: drift in the box's speed between
  // two separate best-of runs would read as streaming overhead.
  one_shot4.seconds = framed4.seconds = 1e100;
  for (int r = 0; r < 3; ++r) {
    one_shot4.seconds =
        std::min(one_shot4.seconds, bench::time_s(decode_one_shot4));
    framed4.seconds = std::min(framed4.seconds, bench::time_s(decode_framed4));
  }

  // (c) TTFB under paced arrival: how much of the container had to arrive
  // before the first output byte left, averaged over the corpus.
  double arrival_fraction = 0;
  std::size_t measured = 0;
  for (const auto& lep : leps) {
    lepton::VectorSink sink;
    lepton::DecodeSession s(sink, {}, &ctx);
    std::size_t off = 0, first_out = 0;
    while (off < lep.size()) {
      std::size_t n = std::min<std::size_t>(1500, lep.size() - off);
      if (s.feed({lep.data() + off, n}) != lepton::util::ExitCode::kSuccess)
        break;
      off += n;
      if (first_out == 0 && !sink.data.empty()) first_out = off;
    }
    (void)s.finish();
    if (first_out != 0) {
      arrival_fraction += static_cast<double>(first_out) / lep.size();
      ++measured;
    }
  }
  if (measured > 0) arrival_fraction /= static_cast<double>(measured);

  // (d) encode: one-shot wrapper vs byte-sliced feeds.
  Totals enc_one, enc_sliced;
  enc_one.bytes = enc_sliced.bytes = jpeg_bytes;
  enc_one.seconds = bench::best_of(3, [&] {
    for (const auto& f : corpus) {
      (void)ctx.encode({f.bytes.data(), f.bytes.size()});
    }
  });
  enc_sliced.seconds = bench::best_of(3, [&] {
    for (const auto& f : corpus) {
      lepton::EncodeSession s({}, &ctx);
      std::size_t off = 0;
      while (off < f.bytes.size()) {
        std::size_t n = std::min<std::size_t>(1 + rng.below(1500),
                                              f.bytes.size() - off);
        if (s.feed({f.bytes.data() + off, n}) !=
            lepton::util::ExitCode::kSuccess)
          break;
        off += n;
      }
      lepton::VectorSink sink;
      (void)s.finish(sink);
    }
  });

  std::printf("%-34s %10s\n", "metric", "value");
  std::printf("%-34s %8.1f MB/s\n", "decode, one-shot wrapper",
              one_shot.mb_s());
  std::printf("%-34s %8.1f MB/s (%.1f%% of one-shot)\n",
              "decode, ~1500-byte slices", sliced.mb_s(),
              100.0 * sliced.mb_s() / one_shot.mb_s());
  std::printf("%-34s %8.1f MB/s (%.1f%% of one-shot)\n",
              "decode, 4 segments, 64 KiB slices", framed4.mb_s(),
              100.0 * framed4.mb_s() / one_shot4.mb_s());
  std::printf("%-34s %8.1f %%\n",
              "input arrived before first output", 100.0 * arrival_fraction);
  std::printf("%-34s %8.1f MB/s\n", "encode, one-shot wrapper",
              enc_one.mb_s());
  std::printf("%-34s %8.1f MB/s (%.1f%% of one-shot)\n",
              "encode, ~1500-byte slices", enc_sliced.mb_s(),
              100.0 * enc_sliced.mb_s() / enc_one.mb_s());
  return 0;
}

// Tests for the encode-side context-plane pipeline: the plane-fed encode
// against the decoder's per-block context derivation (over geometry,
// sampling, restart intervals, saturated values and model ablations),
// kernel identity across SIMD levels, and the branchless bucket-arithmetic
// identities the precompute relies on.
//
// Every encode runs the plane, and the decoder derives each context per
// block, so every case's round trip checks the plane against that
// reference. Each case also pins one MD5 over all the containers it
// encodes. The digests were recorded from a build that still carried a
// per-block encoder, where every one of these containers was byte-identical
// to the per-block encode; a drifted plane bucket that happens to round
// trip (or a changed container) still fails the pin.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "corpus/corpus.h"
#include "corpus/image_gen.h"
#include "jpeg/jfif_builder.h"
#include "jpeg/scan_simd.h"
#include "lepton/lepton.h"
#include "model/context_plane.h"
#include "model/model.h"
#include "util/cpu_features.h"
#include "util/md5.h"
#include "util/rng.h"

namespace lj = lepton::jpegfmt;
namespace lm = lepton::model;
namespace lu = lepton::util;
namespace simd = lepton::jpegfmt::simd;

namespace {

// Encodes `jpeg`, checks that the decoder's per-block derivation restores
// it exactly, and folds the container into `digest`.
void encode_round_trip(lepton::CodecContext& ctx,
                       const std::vector<std::uint8_t>& jpeg,
                       const lepton::EncodeOptions& opts, lu::Md5& digest,
                       const char* what) {
  auto a = ctx.encode({jpeg.data(), jpeg.size()}, opts);
  ASSERT_TRUE(a.ok()) << what << ": " << a.message;
  auto d = ctx.decode({a.data.data(), a.data.size()});
  ASSERT_TRUE(d.ok()) << what;
  ASSERT_EQ(d.data, jpeg) << what;
  digest.update({a.data.data(), a.data.size()});
}

// The pinned digest over every container a case encoded, in order.
void expect_digest(lu::Md5& digest, const char* pinned) {
  EXPECT_EQ(lu::Md5::hex(digest.final()), pinned);
}

std::vector<std::uint8_t> synth_jpeg(int w, int h, int channels,
                                     lepton::corpus::ImageStyle style,
                                     lj::JfifOptions opt, std::uint64_t seed) {
  auto img = lepton::corpus::generate_image(w, h, channels, style, seed);
  return lj::build_jfif(img, opt);
}

}  // namespace

// ---- kernel identity --------------------------------------------------------

TEST(ContextKernels, AbsNzIdenticalAcrossLevels) {
  lepton::util::Rng rng(501);
  for (int trial = 0; trial < 200; ++trial) {
    std::int16_t blk[64];
    for (auto& c : blk) {
      // Full int16 range including INT16_MIN (wraps to 32768, by contract
      // identical at every level).
      c = static_cast<std::int16_t>(rng.next());
    }
    std::uint16_t want_abs[64], got_abs[64];
    std::uint64_t want_nz = 0, got_nz = 0;
    simd::abs_nz_scalar(blk, want_abs, &want_nz);
    lu::force_simd_level(lu::detected_simd());
    simd::context_kernels().abs_nz(blk, got_abs, &got_nz);
    lu::clear_simd_override();
    ASSERT_EQ(want_nz, got_nz) << trial;
    for (int i = 0; i < 64; ++i) ASSERT_EQ(want_abs[i], got_abs[i]) << trial;
  }
}

TEST(ContextKernels, MagBucketsIdenticalAcrossLevelsAndRowForm) {
  lepton::util::Rng rng(502);
  const int nblocks = 7;
  std::vector<std::uint16_t> a(nblocks * 64), l(nblocks * 64), al(nblocks * 64);
  for (int trial = 0; trial < 100; ++trial) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Legal magnitude range plus a few wild lanes (the kernels must agree
      // even where the uint16 sum wraps).
      a[i] = static_cast<std::uint16_t>(rng.below(trial % 4 == 0 ? 65536 : 2049));
      l[i] = static_cast<std::uint16_t>(rng.below(2049));
      al[i] = static_cast<std::uint16_t>(rng.below(1024));
    }
    std::vector<std::uint8_t> want(a.size()), got(a.size());
    simd::mag_buckets_row_scalar(a.data(), l.data(), al.data(), want.data(),
                                 a.size());
    lu::force_simd_level(lu::detected_simd());
    simd::context_kernels().mag_buckets_row(a.data(), l.data(), al.data(),
                                            got.data(), a.size());
    ASSERT_EQ(want, got) << trial;
    // Per-block form agrees with the row form.
    simd::context_kernels().mag_buckets(a.data(), l.data(), al.data(),
                                        got.data());
    lu::clear_simd_override();
    for (int i = 0; i < 64; ++i) ASSERT_EQ(want[i], got[i]) << trial;
  }
}

TEST(ContextKernels, MagBucketMatchesReferenceFormula) {
  // The kernel reproduces magnitude_bucket((13a + 13l + 6al)/32) exactly on
  // decode-legal coefficient magnitudes (|AC| <= 1023, |DC| <= 2048).
  lepton::util::Rng rng(503);
  std::uint16_t a[64], l[64], al[64];
  std::uint8_t out[64];
  for (int trial = 0; trial < 200; ++trial) {
    for (int i = 0; i < 64; ++i) {
      a[i] = static_cast<std::uint16_t>(rng.below(1024));
      l[i] = static_cast<std::uint16_t>(rng.below(1024));
      al[i] = static_cast<std::uint16_t>(rng.below(1024));
    }
    simd::mag_buckets_scalar(a, l, al, out);
    for (int i = 0; i < 64; ++i) {
      std::uint32_t w = (13u * a[i] + 13u * l[i] + 6u * al[i]) / 32u;
      ASSERT_EQ(out[i], lm::magnitude_bucket(w)) << trial << ":" << i;
    }
  }
}

TEST(ContextPlane, LakhaniNumBucketMatchesShiftWalk) {
  // bit_width(a / qq) is exactly the reference shift walk
  // (m = #{k : a >= qq << k}, clamped to 8).
  auto walk = [](std::int64_t num, std::uint32_t qq) {
    std::int64_t pred_dq = num / lj::dct_basis_q20(0, 0);
    std::uint64_t a = pred_dq < 0 ? static_cast<std::uint64_t>(-pred_dq)
                                  : static_cast<std::uint64_t>(pred_dq);
    if (qq == 0) qq = 1;
    int m = 0;
    while (m < 8 && a >= (static_cast<std::uint64_t>(qq) << m)) ++m;
    return pred_dq < 0 ? 8 - m : 8 + m;
  };
  lepton::util::Rng rng(504);
  for (int trial = 0; trial < 20000; ++trial) {
    auto mag = static_cast<std::int64_t>(rng.next() >> (rng.below(40)));
    std::int64_t num = (trial & 1) != 0 ? -mag : mag;
    auto qq = static_cast<std::uint32_t>(rng.below(65536));
    ASSERT_EQ(lm::lakhani_num_bucket(num, qq), walk(num, qq))
        << num << "/" << qq;
  }
  // Boundary cases: zero, qq == 0 (treated as 1), saturation.
  EXPECT_EQ(lm::lakhani_num_bucket(0, 17), walk(0, 17));
  EXPECT_EQ(lm::lakhani_num_bucket(1 << 30, 0), walk(1 << 30, 0));
  EXPECT_EQ(lm::lakhani_num_bucket(INT64_MAX / 2, 1), walk(INT64_MAX / 2, 1));
  EXPECT_EQ(lm::lakhani_num_bucket(-(INT64_MAX / 2), 1),
            walk(-(INT64_MAX / 2), 1));
}

// ---- plane-vs-reference stream identity -------------------------------------

TEST(ContextPlane, MatchesReferenceOnCorpus) {
  lepton::corpus::CorpusOptions copt;
  copt.min_bytes = 20 << 10;
  copt.max_bytes = 160 << 10;
  copt.valid_files = 10;
  copt.include_anomalies = false;
  auto corpus = lepton::corpus::build_corpus(copt);
  lepton::CodecContext ctx(2);
  lu::Md5 digest;
  int swept = 0;
  for (const auto& f : corpus) {
    if (f.kind != lepton::corpus::FileKind::kBaselineJpeg) continue;
    encode_round_trip(ctx, f.bytes, {}, digest, "corpus default");
    ++swept;
  }
  EXPECT_GE(swept, 8);
  expect_digest(digest, "e17a4d62bbc7d6188bd3162b0f6886a5");
}

TEST(ContextPlane, MatchesReferenceAcrossSegmentation) {
  // Multi-segment encodes start mid-image segments whose first MCU row has
  // no above context but (for 2x2 sampling) a live below-left quirk slot —
  // the ring behaviour the plane must replicate. Force several segment
  // counts over a 420 image.
  lj::JfifOptions jopt;
  jopt.subsampling = lj::Subsampling::k420;
  auto jpeg = synth_jpeg(680, 420, 3, lepton::corpus::ImageStyle::kMixed,
                         jopt, 604);
  lepton::CodecContext ctx(4);
  lu::Md5 digest;
  for (int threads : {1, 2, 4, 8}) {
    lepton::EncodeOptions base;
    base.force_threads = threads;
    encode_round_trip(ctx, jpeg, base, digest, "forced threads");
  }
  lepton::EncodeOptions one_way;
  one_way.force_threads = 1;
  encode_round_trip(ctx, jpeg, one_way, digest, "one-way");
  expect_digest(digest, "f77c225c97410798d80376a6e5513fdf");
}

TEST(ContextPlane, MatchesReferenceOnGeometryEdgeCases) {
  lepton::CodecContext ctx(2);
  struct Case {
    int w, h, channels;
    lj::Subsampling sub;
    int rst;
    const char* what;
  };
  const Case cases[] = {
      {8, 8, 3, lj::Subsampling::k444, 0, "single block"},
      {8, 400, 3, lj::Subsampling::k444, 0, "one block wide"},
      {400, 8, 3, lj::Subsampling::k444, 0, "one block tall"},
      {16, 240, 3, lj::Subsampling::k420, 0, "one MCU wide 420"},
      {120, 90, 1, lj::Subsampling::k444, 0, "grayscale"},
      {168, 120, 3, lj::Subsampling::k422, 3, "422 with restarts"},
      {168, 120, 3, lj::Subsampling::k420, 1, "420 restart every MCU"},
      {104, 88, 3, lj::Subsampling::k420, 7, "420 restart interval 7"},
  };
  lu::Md5 digest;
  int seed = 700;
  for (const auto& c : cases) {
    lj::JfifOptions jopt;
    jopt.subsampling = c.sub;
    jopt.restart_interval_mcus = c.rst;
    auto jpeg = synth_jpeg(c.w, c.h, c.channels,
                           lepton::corpus::ImageStyle::kEdges, jopt, seed++);
    encode_round_trip(ctx, jpeg, {}, digest, c.what);
  }
  expect_digest(digest, "aaa5d6b58d0d49fb451dcfc23a94db84");
}

TEST(ContextPlane, MatchesReferenceOnSaturatedInputs) {
  // Quality extremes drive coefficients toward the bucket saturation edges
  // (low quality: huge quant steps, sparse large values; q=100: dense
  // near-raw coefficients and maximal nonzero counts).
  lepton::CodecContext ctx(2);
  lu::Md5 digest;
  int seed = 800;
  for (int quality : {5, 50, 100}) {
    for (auto style : {lepton::corpus::ImageStyle::kEdges,
                       lepton::corpus::ImageStyle::kTexture}) {
      lj::JfifOptions jopt;
      jopt.quality = quality;
      jopt.subsampling = lj::Subsampling::k420;
      auto jpeg = synth_jpeg(160, 120, 3, style, jopt, seed++);
      encode_round_trip(ctx, jpeg, {}, digest, "saturated");
    }
  }
  expect_digest(digest, "10ca76041bb26ece67ce052c96876970");
}

TEST(ContextPlane, MatchesReferenceUnderModelAblations) {
  lj::JfifOptions jopt;
  jopt.subsampling = lj::Subsampling::k420;
  auto jpeg = synth_jpeg(200, 152, 3, lepton::corpus::ImageStyle::kMixed,
                         jopt, 900);
  lepton::CodecContext ctx(2);
  lu::Md5 digest;
  for (int mask = 0; mask < 8; ++mask) {
    lepton::EncodeOptions base;
    base.model.lakhani_edges = (mask & 1) != 0;
    base.model.dc_gradient = (mask & 2) != 0;
    base.model.zigzag_77 = (mask & 4) != 0;
    encode_round_trip(ctx, jpeg, base, digest, "ablation");
  }
  expect_digest(digest, "d9404ca689c3c0fdb2e965ebaa6e87c0");
}

TEST(ContextPlane, StreamsIdenticalAcrossSimdLevels) {
  // The plane encode must produce the same bytes at every forced SIMD
  // level (scalar / SSE2 / AVX2, clamped to what the CPU has) — the
  // portability contract for streams encoded on heterogeneous fleets.
  lj::JfifOptions jopt;
  jopt.subsampling = lj::Subsampling::k420;
  auto jpeg = synth_jpeg(280, 200, 3, lepton::corpus::ImageStyle::kMixed,
                         jopt, 1000);
  lepton::CodecContext ctx(2);
  lu::force_simd_level(lu::SimdLevel::kScalar);
  auto want = ctx.encode({jpeg.data(), jpeg.size()});
  ASSERT_TRUE(want.ok());
  for (lu::SimdLevel level :
       {lu::SimdLevel::kSse2, lu::SimdLevel::kAvx2, lu::detected_simd()}) {
    lu::force_simd_level(level);
    auto got = ctx.encode({jpeg.data(), jpeg.size()});
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(want.data, got.data) << lu::simd_level_name(level);
  }
  lu::clear_simd_override();
}

TEST(ContextPlane, ProgressiveAndHostileInputsClassifyIdentically) {
  // The pipeline must not change rejection behaviour: non-baseline inputs
  // die in the parser with the classification (and output) pinned from the
  // build whose per-block encoder gave the same.
  lepton::corpus::CorpusOptions copt;
  copt.valid_files = 2;
  copt.include_anomalies = true;
  auto corpus = lepton::corpus::build_corpus(copt);
  lepton::CodecContext ctx(2);
  lu::Md5 digest;
  int anomalies = 0;
  for (const auto& f : corpus) {
    if (f.kind == lepton::corpus::FileKind::kBaselineJpeg) continue;
    auto a = ctx.encode({f.bytes.data(), f.bytes.size()});
    const auto code = static_cast<std::uint8_t>(a.code);
    digest.update({&code, 1});
    digest.update({a.data.data(), a.data.size()});
    ++anomalies;
  }
  EXPECT_GE(anomalies, 3);
  expect_digest(digest, "c800a45dc8509402a46341476f74153a");
}

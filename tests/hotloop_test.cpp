// Tests for the adaptive-model hot-loop overhaul (ISSUE 3): the clustered
// bin layout contract, bit-exact equivalence of the speculative tree decode
// against the per-bit reference template, Branch saturation edges,
// and corpus round-trips with SIMD dispatch forced on and off.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "coding/bool_coder.h"
#include "coding/branch.h"
#include "coding/coder_ops.h"
#include "corpus/corpus.h"
#include "jpeg/dct.h"
#include "jpeg/scan_simd.h"
#include "lepton/lepton.h"
#include "model/model.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace lc = lepton::coding;
namespace lm = lepton::model;
namespace lu = lepton::util;

// ---- model layout contract --------------------------------------------------

TEST(ModelLayout, ClustersAreExactlyTheirBins) {
  // No padding anywhere: every cluster is a dense run of Branch, so the
  // model is one contiguous Branch array (what the pattern-fill reset and
  // the bin count both rely on).
  EXPECT_EQ(sizeof(lm::Coef77Bins),
            sizeof(lc::Branch) *
                (lm::kNzBuckets * (lm::kAcMaxBits + 1) + 1 + lm::kAcMaxBits));
  EXPECT_EQ(sizeof(lm::EdgeBins),
            sizeof(lc::Branch) * (lm::kEdgeMagBuckets * (lm::kAcMaxBits + 1) +
                                  1 + lm::kEdgeMagBuckets * lm::kAcMaxBits));
  EXPECT_EQ(sizeof(lm::ValueBins<lm::kDcDeltaBits>),
            sizeof(lc::Branch) * (2 * lm::kDcDeltaBits + 2));
}

TEST(ModelLayout, LayoutMapTilesTheKindModel) {
  const auto& l = lm::kKindModelLayout;
  EXPECT_EQ(l.nz77_off, 0u);
  EXPECT_EQ(l.c77_off, l.nz77_off + sizeof(lc::Branch) * l.nz77_bins);
  EXPECT_EQ(l.edge_nz_off, l.c77_off + sizeof(lc::Branch) * l.c77_bins);
  EXPECT_EQ(l.edge_off, l.edge_nz_off + sizeof(lc::Branch) * l.edge_nz_bins);
  EXPECT_EQ(l.dc_off, l.edge_off + sizeof(lc::Branch) * l.edge_bins);
  EXPECT_EQ(sizeof(lm::KindModel), l.dc_off + sizeof(lc::Branch) * l.dc_bins);
  // Bin population unchanged by the clustering: same count as the
  // pre-cluster layout (the clusters are pure relocation).
  std::size_t bins_per_kind =
      l.nz77_bins + l.c77_bins + l.edge_nz_bins + l.edge_bins + l.dc_bins;
  EXPECT_EQ(lm::model_bin_count(), 2 * bins_per_kind);
}

TEST(ModelLayout, ResetRestoresFreshClusters) {
  auto used = std::make_unique<lm::ProbabilityModel>();
  auto fresh = std::make_unique<lm::ProbabilityModel>();
  // Touch bins in every section of both kinds.
  for (int i = 0; i < 500; ++i) {
    used->kinds[0].nz77.at(i % 10).at(i % 64).record((i & 1) != 0);
    auto& cb = used->kinds[i & 1].c77.at(i % 49).at(i % 12);
    cb.exp_row(i % 10)[i % 11].record((i & 2) != 0);
    cb.sign.record((i & 1) != 0);
    cb.res[i % 10].record((i & 4) != 0);
    auto& eb = used->kinds[i & 1].edge.at(i & 1).at(i % 7).at(i % 17);
    eb.exp_row(i % 4)[i % 11].record((i & 1) != 0);
    eb.res_row(i % 4)[i % 10].record((i & 2) != 0);
    auto& db = used->kinds[i & 1].dc.at(i % 17);
    db.exp[i % 14].record((i & 1) != 0);
    db.sign.record((i & 2) != 0);
  }
  ASSERT_NE(std::memcmp(used.get(), fresh.get(), sizeof(*used)), 0);
  used->reset();
  EXPECT_EQ(std::memcmp(used.get(), fresh.get(), sizeof(*used)), 0);
}

// ---- Branch edge cases ------------------------------------------------------

TEST(Branch, SaturationRenormalizesAndProbStaysClamped) {
  lc::Branch b;
  EXPECT_EQ(b.prob_zero(), 128);
  for (int i = 0; i < 1000; ++i) {
    b.record(false);  // zeros drive prob_zero toward 255
    EXPECT_GE(b.prob_zero(), 1);
    EXPECT_LE(b.prob_zero(), 255);
  }
  // Fully adapted (the renormalization cycle oscillates between ~254 at a
  // halving and 255 at the count ceiling — never outside the clamp).
  EXPECT_GE(b.prob_zero(), 250);
  // Counts renormalize rather than saturate: the bin keeps adapting.
  int p_before = b.prob_zero();
  for (int i = 0; i < 64; ++i) b.record(true);
  EXPECT_LT(b.prob_zero(), p_before);
  for (int i = 0; i < 2000; ++i) {
    b.record(true);
    EXPECT_GE(b.prob_zero(), 1);
  }
  EXPECT_LE(b.prob_zero(), 4);
}

// ---- speculative decode equivalence ----------------------------------------

namespace {

// A randomized workload of interleaved tree / value / literal codes, the
// shapes the model actually uses (3/6-bit trees, 10/13-bit Exp-Golomb) plus
// the 8-bit tree of the byte-arith baseline.
struct Workload {
  struct Op {
    int kind;      // 0 = tree, 1 = value, 2 = literal
    int param;     // tree bits / value max_bits / literal count
    int slot;      // which branch bank
    std::int32_t v;
  };
  std::vector<Op> ops;
  std::vector<std::array<lc::Branch, 256>> tree_banks;
  std::vector<lm::ValueBins<13>> value_banks;

  explicit Workload(std::uint64_t seed, int n) {
    lepton::util::Rng rng(seed);
    tree_banks.resize(8);
    value_banks.resize(8);
    // Pre-adapt some banks (including saturated bins) so the fuzz covers
    // renormalized and extreme-probability states, not just the prior.
    for (std::size_t bank = 0; bank < 8; ++bank) {
      int warm = static_cast<int>(rng.below(3000));
      for (int i = 0; i < warm; ++i) {
        tree_banks[bank][rng.below(256)].record(rng.chance(0.9));
        value_banks[bank].exp[rng.below(14)].record(rng.chance(0.05));
      }
    }
    ops.resize(static_cast<std::size_t>(n));
    for (auto& op : ops) {
      op.kind = static_cast<int>(rng.below(3));
      op.slot = static_cast<int>(rng.below(8));
      switch (op.kind) {
        case 0: {
          static constexpr int kBits[3] = {3, 6, 8};
          op.param = kBits[rng.below(3)];
          op.v = static_cast<std::int32_t>(rng.below(1u << op.param));
          break;
        }
        case 1: {
          op.param = rng.chance(0.5) ? 10 : 13;
          std::uint32_t mag = rng.below(1u << (op.param - 1));
          op.v = rng.chance(0.5) ? -static_cast<std::int32_t>(mag)
                                 : static_cast<std::int32_t>(mag);
          break;
        }
        default: {
          op.param = 1 + static_cast<int>(rng.below(20));
          op.v = static_cast<std::int32_t>(rng.below(1u << op.param));
          break;
        }
      }
    }
  }
};

}  // namespace

TEST(SpeculativeDecode, BitExactWithReferenceOverFuzzedStates) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull, 12345ull}) {
    Workload enc_w(seed, 4000);
    std::vector<std::uint8_t> stream;
    {
      lc::BoolEncoder enc(&stream);
      lc::EncodeOps ops{&enc};
      for (const auto& op : enc_w.ops) {
        auto& tb = enc_w.tree_banks[static_cast<std::size_t>(op.slot)];
        auto& vb = enc_w.value_banks[static_cast<std::size_t>(op.slot)];
        if (op.kind == 0) {
          lc::code_tree(ops, tb.data(), op.param,
                        static_cast<std::uint32_t>(op.v));
        } else if (op.kind == 1) {
          lc::code_value(ops, vb.exp.data(), &vb.sign, vb.res.data(),
                         op.param, op.v);
        } else {
          ops.code_literal(static_cast<std::uint32_t>(op.v), op.param);
        }
      }
      enc.finish_into_buffer();
    }

    // Decode twice from identically warmed state: the speculative code_tree
    // overload (what SegmentCodec uses) and the per-bit reference template.
    // Value codes run the one code_value template on both sides; they keep
    // the stream state realistic between the tree codes under test.
    Workload spec_w(seed, 4000), ref_w(seed, 4000);
    lc::BoolDecoder spec_dec({stream.data(), stream.size()});
    lc::BoolDecoder ref_dec({stream.data(), stream.size()});
    lc::DecodeOps spec_ops{&spec_dec}, ref_ops{&ref_dec};
    for (std::size_t k = 0; k < enc_w.ops.size(); ++k) {
      const auto& op = enc_w.ops[k];
      auto slot = static_cast<std::size_t>(op.slot);
      std::int64_t got_spec, got_ref;
      if (op.kind == 0) {
        got_spec = lc::code_tree(spec_ops, spec_w.tree_banks[slot].data(),
                                 op.param, 0);
        got_ref = lc::code_tree<lc::DecodeOps>(
            ref_ops, ref_w.tree_banks[slot].data(), op.param, 0);
      } else if (op.kind == 1) {
        auto& sb = spec_w.value_banks[slot];
        auto& rb = ref_w.value_banks[slot];
        got_spec = lc::code_value(spec_ops, sb.exp.data(), &sb.sign,
                                  sb.res.data(), op.param, 0);
        got_ref = lc::code_value<lc::DecodeOps>(ref_ops, rb.exp.data(),
                                                &rb.sign, rb.res.data(),
                                                op.param, 0);
      } else {
        got_spec = spec_ops.code_literal(0, op.param);
        got_ref = ref_ops.code_literal(0, op.param);
      }
      ASSERT_EQ(got_spec, got_ref) << "op " << k << " seed " << seed;
      ASSERT_EQ(got_spec, op.v) << "op " << k << " seed " << seed;
    }
    // Identical stream consumption and identical adapted model state.
    EXPECT_EQ(spec_dec.consumed(), ref_dec.consumed());
    EXPECT_FALSE(spec_dec.overran());
    EXPECT_FALSE(ref_dec.overran());
    EXPECT_EQ(std::memcmp(spec_w.tree_banks.data(), ref_w.tree_banks.data(),
                          spec_w.tree_banks.size() *
                              sizeof(spec_w.tree_banks[0])),
              0);
    EXPECT_EQ(std::memcmp(spec_w.value_banks.data(), ref_w.value_banks.data(),
                          spec_w.value_banks.size() *
                              sizeof(spec_w.value_banks[0])),
              0);
  }
}

TEST(SpeculativeDecode, TruncatedStreamsOverrunNeverCrash) {
  Workload enc_w(42, 500);
  std::vector<std::uint8_t> stream;
  {
    lc::BoolEncoder enc(&stream);
    lc::EncodeOps ops{&enc};
    for (const auto& op : enc_w.ops) {
      auto& tb = enc_w.tree_banks[static_cast<std::size_t>(op.slot)];
      if (op.kind == 0) {
        lc::code_tree(ops, tb.data(), op.param,
                      static_cast<std::uint32_t>(op.v));
      }
    }
    enc.finish_into_buffer();
  }
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, stream.size() / 2}) {
    Workload dec_w(42, 500);
    lc::BoolDecoder dec({stream.data(), cut});
    lc::DecodeOps ops{&dec};
    for (const auto& op : enc_w.ops) {
      if (op.kind != 0) continue;
      auto v = lc::code_tree(ops, dec_w.tree_banks[op.slot].data(), op.param,
                             0u);
      EXPECT_LT(v, 1u << op.param);
    }
    EXPECT_TRUE(dec.overran());
    EXPECT_LE(dec.consumed(), dec.available());
  }
}

// ---- SIMD dispatch ----------------------------------------------------------

TEST(SimdDispatch, ForceClampsToDetectedAndNamesResolve) {
  lu::SimdLevel det = lu::detected_simd();
  lu::force_simd_level(lu::SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(lu::active_simd()), static_cast<int>(det));
  lu::force_simd_level(lu::SimdLevel::kScalar);
  EXPECT_EQ(lu::active_simd(), lu::SimdLevel::kScalar);
  lu::clear_simd_override();
  EXPECT_STREQ(lu::simd_level_name(lu::SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(lu::simd_level_name(lu::SimdLevel::kAvx2), "avx2");
}

TEST(SimdDispatch, PreparedBlocksIdenticalAcrossLevels) {
  lepton::util::Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::int16_t blk[64];
    for (auto& c : blk) {
      // Full int16 range, including the -32768 abs edge case.
      c = static_cast<std::int16_t>(rng.next());
    }
    lepton::jpegfmt::simd::PreparedBlock want{}, got{};
    lepton::jpegfmt::simd::prepare_block_scalar(blk, want);
    lu::force_simd_level(lu::detected_simd());
    lepton::jpegfmt::simd::prepare_block_fn()(blk, got);
    lu::clear_simd_override();
    ASSERT_EQ(want.nzmask, got.nzmask) << trial;
    for (int k = 0; k < 64; ++k) {
      ASSERT_EQ(want.zz[k], got.zz[k]) << trial << ":" << k;
      if (k > 0) ASSERT_EQ(want.size[k], got.size[k]) << trial << ":" << k;
    }
  }
}

TEST(SimdDispatch, IdctIdenticalAcrossLevels) {
  lepton::util::Rng rng(78);
  for (int trial = 0; trial < 200; ++trial) {
    std::int16_t coef[64];
    std::uint16_t q[64];
    for (auto& c : coef) {
      c = static_cast<std::int16_t>(static_cast<int>(rng.below(4096)) - 2048);
    }
    for (auto& v : q) {
      // Mix of 8-bit and hostile 16-bit quant entries: exercises both the
      // AVX2 pass and its range-gated scalar fallback.
      v = static_cast<std::uint16_t>(
          trial % 3 == 0 ? 1 + rng.below(65535) : 1 + rng.below(255));
    }
    std::int32_t want[64], got[64];
    lu::force_simd_level(lu::SimdLevel::kScalar);
    lepton::jpegfmt::idct_8x8_dequant_ac(coef, q, want);
    lu::force_simd_level(lu::detected_simd());
    lepton::jpegfmt::idct_8x8_dequant_ac(coef, q, got);
    lu::clear_simd_override();
    for (int i = 0; i < 64; ++i) ASSERT_EQ(want[i], got[i]) << trial;
  }
}

TEST(SimdDispatch, IdctIdenticalNearRangeGateBoundary) {
  // Large same-sign odd-row coefficients drive the z5 multiply operand of
  // the second pass — a FOUR-term sum of pass-1 outputs — toward the int32
  // edge. Sweeping the quant scale walks the pass-1 magnitudes across the
  // AVX2 range gate, covering the window where a too-loose gate would fork
  // the vector result from scalar (and, through DC prediction, the coded
  // stream across machines).
  for (std::uint32_t q0 : {1u, 3u, 9u, 27u, 81u, 243u, 729u, 2187u, 6561u,
                           19683u, 59049u}) {
    std::int16_t coef[64];
    std::uint16_t q[64];
    for (auto& v : q) v = static_cast<std::uint16_t>(q0);
    for (int u = 0; u < 8; ++u) {
      for (int v = 0; v < 8; ++v) {
        coef[u * 8 + v] = (u % 2 == 1) ? 2047 : 0;  // odd rows, same sign
      }
    }
    std::int32_t want[64], got[64];
    lu::force_simd_level(lu::SimdLevel::kScalar);
    lepton::jpegfmt::idct_8x8_dequant_ac(coef, q, want);
    lu::force_simd_level(lu::detected_simd());
    lepton::jpegfmt::idct_8x8_dequant_ac(coef, q, got);
    lu::clear_simd_override();
    for (int i = 0; i < 64; ++i) ASSERT_EQ(want[i], got[i]) << "q0=" << q0;
  }
}

TEST(SimdDispatch, CorpusRoundTripsWithSimdForcedOnAndOff) {
  lepton::corpus::CorpusOptions copt;
  copt.min_bytes = 16 << 10;
  copt.max_bytes = 96 << 10;
  copt.valid_files = 6;
  auto corpus = lepton::corpus::build_corpus(copt);
  lepton::CodecContext ctx(2);
  const lu::SimdLevel levels[] = {lu::SimdLevel::kScalar, lu::detected_simd()};
  int swept = 0;
  for (const auto& f : corpus) {
    if (f.kind != lepton::corpus::FileKind::kBaselineJpeg) continue;
    // Every (encode level, decode level) pair must reproduce the file
    // exactly — including the cross pairs, which is what guarantees a
    // stream encoded on an AVX2 machine decodes identically on a machine
    // without it.
    for (lu::SimdLevel el : levels) {
      lu::force_simd_level(el);
      auto enc = ctx.encode({f.bytes.data(), f.bytes.size()});
      ASSERT_TRUE(enc.ok());
      for (lu::SimdLevel dl : levels) {
        lu::force_simd_level(dl);
        auto dec = ctx.decode({enc.data.data(), enc.data.size()});
        ASSERT_TRUE(dec.ok());
        ASSERT_EQ(dec.data, f.bytes)
            << "enc " << lu::simd_level_name(el) << " dec "
            << lu::simd_level_name(dl);
      }
    }
    ++swept;
  }
  lu::clear_simd_override();
  EXPECT_GE(swept, 4);
}

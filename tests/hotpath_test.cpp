// Tests for the hot-path overhaul: CodecContext reuse across files (no
// cross-call state leakage, no model-sized allocations after warm-up), the
// threads_for_size / force_threads segmentation policy, the batched 64-bit
// bit I/O against per-bit references, the bool coder's literal fast path,
// BoolDecoder overrun reporting, and >64-segment containers (the old
// OrderedEmitter bitmask ceiling).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "coding/bool_coder.h"
#include "corpus/corpus.h"
#include "jpeg/parser.h"
#include "jpeg/stuffed_bitio.h"
#include "lepton/format.h"
#include "lepton/lepton.h"
#include "util/bitio.h"
#include "util/rng.h"
#include "util/tracked_memory.h"

namespace lc = lepton::coding;
namespace jf = lepton::jpegfmt;
using lepton::util::ExitCode;

namespace {

std::vector<std::uint8_t> corpus_jpeg(std::size_t kb, std::uint64_t seed) {
  return lepton::corpus::jpeg_of_size(kb << 10, seed);
}

}  // namespace

// ---- CodecContext reuse ----------------------------------------------------

TEST(CodecContext, ReuseMatchesFreshContextExactly) {
  // Encoding through a warm context must be byte-identical to a fresh one:
  // scratch reuse may not leak model or ring state between files.
  std::vector<std::vector<std::uint8_t>> files;
  for (int i = 0; i < 4; ++i) files.push_back(corpus_jpeg(24 + 8 * i, 90 + i));

  lepton::CodecContext warm(2);
  lepton::EncodeOptions opt;
  // Warm the scratch pool with a first pass over every file.
  for (const auto& f : files) {
    ASSERT_TRUE(warm.encode({f.data(), f.size()}, opt).ok());
  }
  for (const auto& f : files) {
    lepton::CodecContext fresh(2);
    auto a = warm.encode({f.data(), f.size()}, opt);
    auto b = fresh.encode({f.data(), f.size()}, opt);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.data, b.data) << "scratch reuse leaked state between calls";
    auto d = warm.decode({a.data.data(), a.data.size()});
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.data, f);
  }
}

TEST(CodecContext, NoModelSizedAllocationsAfterWarmup) {
  auto file = corpus_jpeg(16, 7);
  lepton::CodecContext ctx(2);
  lepton::EncodeOptions opt;
  auto enc = ctx.encode({file.data(), file.size()}, opt);
  ASSERT_TRUE(enc.ok());
  ASSERT_TRUE(ctx.decode({enc.data.data(), enc.data.size()}).ok());
  std::size_t blocks_after_warmup = ctx.scratch_blocks();

  // Every encode necessarily allocates the (tracked) whole-image
  // coefficient buffer — that is input-sized and existed before the
  // context; what the warm path must NOT do is allocate a per-call
  // ProbabilityModel on top of it. The pre-context codec allocated one per
  // segment per call, which would push the peak beyond coeff + model.
  auto parsed = jf::parse_jpeg({file.data(), file.size()});
  std::size_t coeff_bytes = 0;
  for (const auto& c : parsed.frame.comps) {
    coeff_bytes += static_cast<std::size_t>(c.width_blocks) *
                   c.height_blocks * 64 * sizeof(std::int16_t);
  }
  ASSERT_GT(sizeof(lepton::model::ProbabilityModel), 128u << 10);

  lepton::util::MemoryGauge gauge;
  for (int i = 0; i < 8; ++i) {
    auto e = ctx.encode({file.data(), file.size()}, opt);
    ASSERT_TRUE(e.ok());
    auto d = ctx.decode({e.data.data(), e.data.size()});
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.data, file);
  }
  EXPECT_LT(gauge.peak_bytes(), coeff_bytes + (128u << 10))
      << "a model-sized buffer was allocated on the warm path";
  EXPECT_EQ(ctx.scratch_blocks(), blocks_after_warmup)
      << "scratch pool kept growing after warm-up";
}

TEST(CodecContext, ModelResetEqualsFreshModel) {
  // The memset-based reset must reproduce a freshly constructed model.
  auto used = std::make_unique<lepton::model::ProbabilityModel>();
  auto fresh = std::make_unique<lepton::model::ProbabilityModel>();
  for (int i = 0; i < 1000; ++i) {
    used->kinds[0].nz77.at(i % 10).at(i % 64).record((i & 1) != 0);
    used->kinds[1].dc.at(i % 17).sign.record((i & 2) != 0);
  }
  ASSERT_NE(std::memcmp(used.get(), fresh.get(), sizeof(*used)), 0);
  used->reset();
  EXPECT_EQ(std::memcmp(used.get(), fresh.get(), sizeof(*used)), 0);
}

// ---- Segmentation policy ---------------------------------------------------

namespace {

std::size_t container_segments(const std::vector<std::uint8_t>& lep) {
  auto pc = lepton::core::parse_container({lep.data(), lep.size()});
  return pc.header.segments.size();
}

}  // namespace

TEST(ThreadPolicy, ForceThreadsControlsSegmentCount) {
  auto file = corpus_jpeg(96, 11);
  for (int forced : {1, 2, 3, 7}) {
    lepton::EncodeOptions opt;
    opt.force_threads = forced;
    auto enc = lepton::encode_jpeg({file.data(), file.size()}, opt);
    ASSERT_TRUE(enc.ok());
    EXPECT_EQ(container_segments(enc.data), static_cast<std::size_t>(forced));
    auto dec = lepton::decode_lepton({enc.data.data(), enc.data.size()});
    ASSERT_TRUE(dec.ok());
    EXPECT_EQ(dec.data, file);
  }
}

TEST(ThreadPolicy, SizePolicyAndOneWay) {
  auto file = corpus_jpeg(96, 12);  // < 128 KiB → policy says 1 segment
  auto enc = lepton::encode_jpeg({file.data(), file.size()});
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(container_segments(enc.data),
            static_cast<std::size_t>(lepton::threads_for_size(file.size())));

  lepton::EncodeOptions one;
  one.force_threads = 1;
  auto enc1 = lepton::encode_jpeg({file.data(), file.size()}, one);
  ASSERT_TRUE(enc1.ok());
  EXPECT_EQ(container_segments(enc1.data), 1u);
}

TEST(ThreadPolicy, ManySegmentsBeyondOldBitmaskLimit) {
  // The old OrderedEmitter tracked completion in a uint64_t bitmask, which
  // silently misbehaved past 64 segments. Containers with >64 segments must
  // now round-trip (segment count is capped only by kMaxSegments and the
  // MCU row count). The file must be tall enough to carry >64 MCU rows.
  auto file = corpus_jpeg(1024, 13);
  lepton::EncodeOptions opt;
  opt.force_threads = 80;
  auto enc = lepton::encode_jpeg({file.data(), file.size()}, opt);
  ASSERT_TRUE(enc.ok());
  ASSERT_GT(container_segments(enc.data), 64u);
  auto dec = lepton::decode_lepton({enc.data.data(), enc.data.size()});
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.data, file);

  lepton::CodecContext serial(0);  // every segment on the calling thread
  auto dec2 = serial.decode({enc.data.data(), enc.data.size()});
  EXPECT_EQ(dec2.data, file);
}

// ---- Batched bit I/O vs per-bit references ---------------------------------

TEST(StuffedBitIo, BatchedGetBitsMatchesPerBitReference) {
  // Random stuffed streams (0xFF00 sequences included) read identically via
  // batched get_bits and via the single-bit path.
  lepton::util::Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint8_t> scan;
    for (int i = 0; i < 400; ++i) {
      std::uint8_t b = static_cast<std::uint8_t>(rng.below(256));
      scan.push_back(b);
      if (b == 0xFF) scan.push_back(0x00);  // keep it entropy data
    }
    jf::StuffedBitReader batched({scan.data(), scan.size()});
    jf::StuffedBitReader per_bit({scan.data(), scan.size()});
    for (;;) {
      int n = static_cast<int>(1 + rng.below(24));
      std::int32_t want = 0;
      bool truncated = false;
      // Per-bit reference on a copy: get_bits must consume nothing when it
      // reports truncation.
      jf::StuffedBitReader probe = per_bit;
      for (int i = 0; i < n; ++i) {
        int bit = probe.get_bit();
        if (bit < 0) {
          truncated = true;
          break;
        }
        want = (want << 1) | bit;
      }
      std::int32_t got = batched.get_bits(n);
      if (truncated) {
        EXPECT_EQ(got, -1);
        break;
      }
      ASSERT_EQ(got, want);
      per_bit = probe;
      ASSERT_EQ(batched.pos().byte_off, per_bit.pos().byte_off);
      ASSERT_EQ(batched.pos().bit_off, per_bit.pos().bit_off);
    }
  }
}

TEST(BitIo, BatchedWriterMatchesPerBitReference) {
  lepton::util::Rng rng(22);
  lepton::util::BitWriter batched;
  lepton::util::BitWriter per_bit;
  for (int i = 0; i < 2000; ++i) {
    int n = static_cast<int>(1 + rng.below(24));
    auto v = static_cast<std::uint32_t>(rng.next());
    batched.put_bits(v, n);
    for (int k = n - 1; k >= 0; --k) per_bit.put_bit((v >> k) & 1u);
    ASSERT_EQ(batched.bit_offset(), per_bit.bit_offset());
    ASSERT_EQ(batched.partial_byte(), per_bit.partial_byte());
  }
  batched.pad_to_byte(1);
  per_bit.pad_to_byte(1);
  EXPECT_EQ(batched.bytes(), per_bit.bytes());
}

TEST(BitIo, BatchedReaderMatchesPerBitReference) {
  lepton::util::Rng rng(23);
  std::vector<std::uint8_t> data(512);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  lepton::util::BitReader batched({data.data(), data.size()});
  lepton::util::BitReader per_bit({data.data(), data.size()});
  while (batched.ok()) {
    int n = static_cast<int>(1 + rng.below(20));
    std::uint32_t want = 0;
    for (int i = 0; i < n; ++i) want = (want << 1) | per_bit.get_bit();
    std::uint32_t got = batched.get_bits(n);
    ASSERT_EQ(got, want);
    ASSERT_EQ(batched.ok(), per_bit.ok());
  }
}

// ---- Bool coder literal fast path ------------------------------------------

TEST(BoolCoder, LiteralBatchMatchesPerBitLiterals) {
  // put_literal(v, n) must produce the same stream as n single-bit
  // put_literal calls, and round-trip through both get_literal forms.
  lepton::util::Rng rng(24);
  std::vector<std::pair<std::uint32_t, int>> runs;
  for (int i = 0; i < 3000; ++i) {
    int n = static_cast<int>(1 + rng.below(24));
    runs.emplace_back(static_cast<std::uint32_t>(rng.next()) &
                          ((n == 32 ? 0 : (1u << n)) - 1u),
                      n);
  }
  lc::BoolEncoder batched;
  lc::BoolEncoder per_bit;
  for (auto [v, n] : runs) {
    batched.put_literal(v, n);
    for (int k = n - 1; k >= 0; --k) per_bit.put_literal((v >> k) & 1u, 1);
  }
  auto a = batched.finish();
  auto b = per_bit.finish();
  EXPECT_EQ(a, b);

  lc::BoolDecoder batched_dec({a.data(), a.size()});
  lc::BoolDecoder per_bit_dec({a.data(), a.size()});
  for (auto [v, n] : runs) {
    ASSERT_EQ(batched_dec.get_literal(n), v);
    std::uint32_t w = 0;
    for (int k = 0; k < n; ++k) w = (w << 1) | per_bit_dec.get_literal(1);
    ASSERT_EQ(w, v);
  }
}

TEST(BoolCoder, LiteralsInterleaveWithAdaptiveBits) {
  lepton::util::Rng rng(25);
  std::vector<int> kinds;
  std::vector<std::uint32_t> vals;
  std::vector<std::uint8_t> probs;
  lc::BoolEncoder enc;
  for (int i = 0; i < 5000; ++i) {
    if (rng.chance(0.5)) {
      kinds.push_back(0);
      auto p = static_cast<std::uint8_t>(1 + rng.below(255));
      bool bit = rng.chance(0.4);
      probs.push_back(p);
      vals.push_back(bit);
      enc.put(bit, p);
    } else {
      kinds.push_back(1);
      std::uint32_t v = static_cast<std::uint32_t>(rng.below(256));
      probs.push_back(0);
      vals.push_back(v);
      enc.put_literal(v, 8);
    }
  }
  auto data = enc.finish();
  lc::BoolDecoder dec({data.data(), data.size()});
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == 0) {
      ASSERT_EQ(dec.get(probs[i]), vals[i] != 0);
    } else {
      ASSERT_EQ(dec.get_literal(8), vals[i]);
    }
  }
  EXPECT_FALSE(dec.overran()) << "well-formed stream must not overrun";
}

TEST(BoolCoder, ExternalBufferReusesCapacity) {
  std::vector<std::uint8_t> buf;
  std::size_t cap_after_first = 0;
  for (int round = 0; round < 3; ++round) {
    lc::BoolEncoder enc(&buf);
    enc.reserve(4096);
    for (int i = 0; i < 20000; ++i) enc.put((i % 5) == 0, 190);
    enc.finish_into_buffer();
    lc::BoolDecoder dec({buf.data(), buf.size()});
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(dec.get(190), (i % 5) == 0);
    }
    if (round == 0) {
      cap_after_first = buf.capacity();
    } else {
      EXPECT_EQ(buf.capacity(), cap_after_first) << "buffer was reallocated";
    }
  }
}

// ---- Overrun reporting -----------------------------------------------------

TEST(BoolCoder, OverranDistinguishesTruncationFromExactConsumption) {
  lc::BoolEncoder enc;
  for (int i = 0; i < 4000; ++i) enc.put(i % 3 == 0, 150);
  auto data = enc.finish();

  lc::BoolDecoder exact({data.data(), data.size()});
  for (int i = 0; i < 4000; ++i) {
    ASSERT_EQ(exact.get(150), i % 3 == 0);
  }
  EXPECT_FALSE(exact.overran());
  EXPECT_TRUE(exact.exhausted());

  auto cut = data;
  cut.resize(cut.size() / 2);
  lc::BoolDecoder truncated({cut.data(), cut.size()});
  for (int i = 0; i < 4000; ++i) (void)truncated.get(150);
  EXPECT_TRUE(truncated.overran()) << "truncated stream must report overrun";
}

TEST(DecodeStats, CleanDecodeConsumesPayloadExactly) {
  auto file = corpus_jpeg(40, 31);
  auto enc = lepton::encode_jpeg({file.data(), file.size()});
  ASSERT_TRUE(enc.ok());
  lepton::VectorSink sink;
  lepton::DecodeStats stats;
  ASSERT_EQ(lepton::decode_lepton({enc.data.data(), enc.data.size()}, sink, {},
                                  lepton::default_context(), &stats),
            ExitCode::kSuccess);
  EXPECT_EQ(sink.data, file);
  EXPECT_FALSE(stats.payload_overrun);
  EXPECT_TRUE(stats.payload_exhausted);
}

TEST(DecodeStats, TruncatedStreamReportsOverrun) {
  // A structurally valid container whose *content* is short: the segment
  // keeps only a sliver of its arithmetic stream (re-serialized, so the
  // header declares the short length), and its BoolDecoder certainly reads
  // past the end within the first rows (a gentle chop can decode to garbage
  // that still classifies before the window drains). The overrun must
  // reach DecodeStats even though the decode fails.
  auto file = corpus_jpeg(40, 32);
  lepton::EncodeOptions opt;
  opt.force_threads = 1;
  auto enc = lepton::encode_jpeg({file.data(), file.size()}, opt);
  ASSERT_TRUE(enc.ok());
  auto pc = lepton::core::parse_container({enc.data.data(), enc.data.size()});
  ASSERT_EQ(pc.header.segments.size(), 1u);
  constexpr std::size_t kKeep = 16;
  ASSERT_GT(pc.arith[0].size(), kKeep);
  pc.arith[0].resize(kKeep);
  auto truncated = lepton::core::serialize_container(pc.header, pc.arith);
  lepton::VectorSink sink;
  lepton::DecodeStats stats;
  (void)lepton::decode_lepton({truncated.data(), truncated.size()}, sink, {},
                              lepton::default_context(), &stats);
  EXPECT_TRUE(stats.payload_overrun);
  EXPECT_FALSE(stats.payload_exhausted);
}

// ---- Huffman LUT decode ----------------------------------------------------

TEST(HuffmanTable, Decode16MatchesPerBitDecode) {
  lepton::util::Rng rng(41);
  // A skewed table with both short and long codes.
  std::vector<std::uint64_t> freq(64);
  for (std::size_t i = 0; i < freq.size(); ++i) {
    freq[i] = 1 + (rng.below(1000) >> (i / 8));
  }
  auto table = jf::build_optimal_table({freq.data(), freq.size()});
  for (int trial = 0; trial < 20000; ++trial) {
    std::uint32_t bits16 = static_cast<std::uint32_t>(rng.below(1u << 16));
    std::uint32_t packed = table.decode16(bits16);
    // Per-bit reference.
    int pos = 15;
    int ref = table.decode([&bits16, &pos]() -> std::uint32_t {
      std::uint32_t b = (bits16 >> pos) & 1u;
      if (pos > 0) --pos;
      return b;
    });
    if (ref < 0) {
      EXPECT_EQ(packed, 0u) << "bits " << bits16;
    } else {
      ASSERT_NE(packed, 0u) << "bits " << bits16;
      EXPECT_EQ(static_cast<int>(packed & 0xFF), ref);
      EXPECT_EQ(static_cast<int>(packed >> 8),
                table.code_length(static_cast<std::uint8_t>(ref)));
    }
  }
}

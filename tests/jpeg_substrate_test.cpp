// Tests for the baseline-JPEG substrate: the jfif builder authors real
// files, the parser + scan decoder take them apart, and the scan encoder
// must reproduce the original bytes exactly — including mid-file handover
// splits, which is the property Lepton's multithreaded decode rests on.
// The header sweep drives the one marker walk through every header prefix
// and single-byte header mutation, whole-buffer and streamed.
#include <gtest/gtest.h>

#include <cmath>

#include "corpus/corpus.h"
#include "jpeg/dct.h"
#include "jpeg/jfif_builder.h"
#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "jpeg/scan_encoder.h"
#include "lepton/session.h"
#include "util/rng.h"

namespace jf = lepton::jpegfmt;
using lepton::util::ExitCode;

namespace {

jf::RasterImage test_image(int w, int h, int channels, std::uint64_t seed) {
  jf::RasterImage img;
  img.width = w;
  img.height = h;
  img.channels = channels;
  img.pixels.resize(static_cast<std::size_t>(w) * h * channels);
  lepton::util::Rng rng(seed);
  // Smooth gradient + noise + a few hard edges: exercises DC deltas, long
  // zero runs, and dense AC blocks.
  int edge_x = w / 3 + static_cast<int>(rng.below(8));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < channels; ++c) {
        int v = (x * 2 + y * 3) / 4 + static_cast<int>(rng.below(24)) +
                (x > edge_x ? 60 : 0) + c * 10;
        img.pixels[(static_cast<std::size_t>(y) * w + x) * channels + c] =
            static_cast<std::uint8_t>(v & 0xFF);
      }
    }
  }
  return img;
}

ExitCode classify(std::span<const std::uint8_t> bytes) {
  try {
    auto parsed = jf::parse_jpeg(bytes);
    (void)jf::decode_scan(parsed);
    return ExitCode::kSuccess;
  } catch (const jf::ParseError& e) {
    return e.code();
  }
}

void expect_full_roundtrip(const std::vector<std::uint8_t>& file) {
  auto parsed = jf::parse_jpeg({file.data(), file.size()});
  auto dec = jf::decode_scan(parsed);
  auto rebuilt = jf::reconstruct_file(parsed, dec);
  ASSERT_EQ(rebuilt.size(), file.size());
  EXPECT_EQ(rebuilt, file);
}

}  // namespace

TEST(HuffmanTable, CanonicalCodesDecode) {
  // Tiny table: symbols A(len1) B(len2) C(len3).
  std::uint8_t counts[16] = {1, 1, 1};
  std::uint8_t syms[3] = {'A', 'B', 'C'};
  auto t = jf::HuffmanTable::build(counts, syms);
  EXPECT_EQ(t.code('A'), 0u);
  EXPECT_EQ(t.code_length('A'), 1);
  EXPECT_EQ(t.code('B'), 0b10u);
  EXPECT_EQ(t.code('C'), 0b110u);
  // Decode "10" -> B.
  int bits[] = {1, 0};
  int i = 0;
  EXPECT_EQ(t.decode([&] { return bits[i++]; }), 'B');
}

TEST(HuffmanTable, RejectsOversubscribed) {
  std::uint8_t counts[16] = {3};  // three 1-bit codes is impossible
  std::uint8_t syms[3] = {1, 2, 3};
  EXPECT_THROW(jf::HuffmanTable::build(counts, syms), jf::ParseError);
}

TEST(HuffmanTable, OptimalTableCoversSymbols) {
  std::uint64_t freq[256] = {};
  freq[0x00] = 1000;
  freq[0x01] = 500;
  freq[0x21] = 100;
  freq[0xF0] = 7;
  auto t = jf::build_optimal_table({freq, 256});
  for (int s : {0x00, 0x01, 0x21, 0xF0}) {
    EXPECT_GT(t.code_length(static_cast<std::uint8_t>(s)), 0) << s;
  }
  // More frequent symbols must not get longer codes.
  EXPECT_LE(t.code_length(0x00), t.code_length(0x21));
}

TEST(Dct, IdctDcOnlyIsExactShift) {
  std::int32_t coef[64] = {};
  coef[0] = 400;  // dequantized DC
  std::int32_t out[64];
  jf::idct_8x8_scaled(coef, out);
  // DC d contributes exactly d/8 per sample; 8x-scaled output == d.
  for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], 400) << i;
}

TEST(Dct, ForwardInverseConsistency) {
  std::uint8_t px[64];
  lepton::util::Rng rng(5);
  for (auto& p : px) p = static_cast<std::uint8_t>(rng.below(256));
  double coef[64];
  jf::fdct_8x8(px, 8, coef);
  std::int32_t icoef[64];
  for (int i = 0; i < 64; ++i) icoef[i] = static_cast<std::int32_t>(std::lround(coef[i]));
  std::int32_t out[64];
  jf::idct_8x8_scaled(icoef, out);
  for (int i = 0; i < 64; ++i) {
    double recon = out[i] / 8.0 + 128.0;
    EXPECT_NEAR(recon, px[i], 2.5) << i;  // rounding through int coef path
  }
}

TEST(Dct, BasisIsOrthonormal) {
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      double dot = 0;
      for (int x = 0; x < 8; ++x) {
        dot += static_cast<double>(jf::dct_basis_q20(x, u)) *
               static_cast<double>(jf::dct_basis_q20(x, v)) / (1048576.0 * 1048576.0);
      }
      EXPECT_NEAR(dot, u == v ? 1.0 : 0.0, 1e-5);
    }
  }
}

// ---- Parser classification (the §6.2 taxonomy) ----------------------------

TEST(Parser, RejectsNonImage) {
  std::vector<std::uint8_t> junk = {0x00, 0x11, 0x22, 0x33};
  EXPECT_EQ(classify({junk.data(), junk.size()}), ExitCode::kNotAnImage);
  std::vector<std::uint8_t> soi_junk = {0xFF, 0xD8, 0x99, 0x88, 0x77, 0x66};
  EXPECT_EQ(classify({soi_junk.data(), soi_junk.size()}),
            ExitCode::kNotAnImage);
}

TEST(Parser, RejectsProgressive) {
  auto img = test_image(64, 64, 3, 1);
  auto file = jf::build_jfif(img, {});
  // Rewrite the SOF0 marker (FFC0) to SOF2 (progressive).
  for (std::size_t i = 0; i + 1 < file.size(); ++i) {
    if (file[i] == 0xFF && file[i + 1] == 0xC0) {
      file[i + 1] = 0xC2;
      break;
    }
  }
  EXPECT_EQ(classify({file.data(), file.size()}), ExitCode::kProgressive);
}

TEST(Parser, RejectsCmyk) {
  // Hand-build a 4-component SOF inside an otherwise valid prefix.
  auto img = test_image(32, 32, 3, 2);
  auto file = jf::build_jfif(img, {});
  for (std::size_t i = 0; i + 9 < file.size(); ++i) {
    if (file[i] == 0xFF && file[i + 1] == 0xC0) {
      file[i + 9] = 4;  // component count lives at SOF payload offset 5
      break;
    }
  }
  EXPECT_EQ(classify({file.data(), file.size()}), ExitCode::kCmyk);
}

TEST(Parser, RejectsHeaderOnly) {
  std::vector<std::uint8_t> file = {0xFF, 0xD8, 0xFF, 0xD9};
  EXPECT_EQ(classify({file.data(), file.size()}), ExitCode::kUnsupportedJpeg);
}

TEST(Parser, AcceptsTrailingGarbage) {
  auto img = test_image(48, 48, 3, 3);
  auto file = jf::build_jfif(img, {});
  std::vector<std::uint8_t> with_tail = file;
  for (int i = 0; i < 1000; ++i) {
    with_tail.push_back(static_cast<std::uint8_t>(i));
  }
  auto parsed = jf::parse_jpeg({with_tail.data(), with_tail.size()});
  EXPECT_EQ(parsed.trailing_bytes().size(), 1000u);
  expect_full_roundtrip(with_tail);
}

TEST(Parser, GeometryInterleaved420) {
  auto img = test_image(100, 60, 3, 4);
  jf::JfifOptions opt;
  opt.subsampling = jf::Subsampling::k420;
  auto file = jf::build_jfif(img, opt);
  auto parsed = jf::parse_jpeg({file.data(), file.size()});
  EXPECT_EQ(parsed.frame.mcus_x, 7);   // ceil(100/16)
  EXPECT_EQ(parsed.frame.mcus_y, 4);   // ceil(60/16)
  EXPECT_EQ(parsed.frame.comps[0].width_blocks, 14);
  EXPECT_EQ(parsed.frame.comps[1].width_blocks, 7);
}

// ---- Header sweep: every prefix and single-byte mutation --------------------

namespace {

// A builder file with a DRI segment of 5 MCUs.
std::vector<std::uint8_t> dri_jpeg() {
  jf::JfifOptions opt;
  opt.restart_interval_mcus = 5;
  return jf::build_jfif(test_image(48, 40, 3, 29), opt);
}

// Two corpus files (EXIF-style COM headers) and dri_jpeg().
std::vector<std::vector<std::uint8_t>> header_sweep_files() {
  lepton::corpus::CorpusOptions opts;
  opts.valid_files = 2;
  opts.min_bytes = 8 << 10;
  opts.max_bytes = 16 << 10;
  opts.include_anomalies = false;
  std::vector<std::vector<std::uint8_t>> files;
  for (auto& f : lepton::corpus::build_corpus(opts)) {
    files.push_back(std::move(f.bytes));
  }
  files.push_back(dri_jpeg());
  return files;
}

ExitCode parse_code(std::span<const std::uint8_t> bytes, bool header_only) {
  try {
    if (header_only) {
      (void)jf::parse_jpeg_header(bytes);
    } else {
      (void)jf::parse_jpeg(bytes);
    }
    return ExitCode::kSuccess;
  } catch (const jf::ParseError& e) {
    return e.code();
  }
}

// Sessions never throw; any classification they make is returned.
ExitCode bytewise_session_code(const std::vector<std::uint8_t>& file) {
  lepton::EncodeSession session;
  for (std::uint8_t b : file) {
    ExitCode code = session.feed({&b, 1});
    if (code != ExitCode::kSuccess) return code;
  }
  lepton::VectorSink sink;
  return session.finish(sink);
}

}  // namespace

TEST(Parser, EveryProperHeaderPrefixIsNotAnImage) {
  for (const auto& file : header_sweep_files()) {
    const std::size_t scan_begin =
        jf::parse_jpeg({file.data(), file.size()}).scan_begin;
    for (std::size_t len = 0; len < scan_begin; ++len) {
      ASSERT_EQ(parse_code({file.data(), len}, false), ExitCode::kNotAnImage)
          << "prefix of " << len << " bytes (scan_begin " << scan_begin
          << ")";
    }
  }
}

TEST(Parser, HeaderMutationsClassifyAlikeWholeAndStreamed) {
  static const std::uint8_t kValues[] = {0x00, 0x01, 0xC0, 0xC2, 0xC4,
                                         0xD0, 0xD8, 0xD9, 0xDA, 0xDB,
                                         0xDD, 0xDE, 0xFE, 0xFF};
  std::size_t rejected = 0;
  for (const auto& file : header_sweep_files()) {
    const std::size_t scan_begin =
        jf::parse_jpeg({file.data(), file.size()}).scan_begin;
    std::vector<std::uint8_t> mutated = file;
    for (std::size_t i = 0; i < scan_begin; ++i) {
      for (std::uint8_t v : kValues) {
        if (file[i] == v) continue;
        mutated[i] = v;
        // Neither parse may crash or throw anything but a ParseError; the
        // header-only parse sees what a container embeds.
        ExitCode whole = parse_code({mutated.data(), mutated.size()}, false);
        (void)parse_code({mutated.data(), scan_begin}, true);
        if (whole != ExitCode::kSuccess) {
          ++rejected;
          ASSERT_EQ(bytewise_session_code(mutated), whole)
              << "byte " << i << " set to " << static_cast<int>(v);
        }
      }
      mutated[i] = file[i];
    }
  }
  EXPECT_GT(rejected, 1000u) << "the sweep must reach the rejection paths";
}

TEST(Parser, CutShortSegmentIsClassifiedByTheBytesPresent) {
  // A CMYK file cut inside its SOF segment, after the component count: the
  // bytes present already say CMYK, so the truncation does not hide it —
  // whole-buffer, header-only or streamed.
  auto file = jf::build_jfif(test_image(32, 32, 3, 2), {});
  for (std::size_t i = 0; i + 9 < file.size(); ++i) {
    if (file[i] == 0xFF && file[i + 1] == 0xC0) {
      file[i + 9] = 4;  // component count
      file.resize(i + 10);
      break;
    }
  }
  EXPECT_EQ(parse_code({file.data(), file.size()}, false), ExitCode::kCmyk);
  EXPECT_EQ(parse_code({file.data(), file.size()}, true), ExitCode::kCmyk);
  EXPECT_EQ(bytewise_session_code(file), ExitCode::kCmyk);
}

TEST(Parser, HeaderParseRecordsRestartInterval) {
  // Every container decode parses the embedded header alone; a scan with
  // restart markers decodes only if that parse keeps the DRI interval.
  const auto file = dri_jpeg();
  auto whole = jf::parse_jpeg({file.data(), file.size()});
  EXPECT_EQ(whole.restart_interval, 5);
  auto header = jf::parse_jpeg_header(whole.header_bytes());
  EXPECT_EQ(header.restart_interval, 5);
  EXPECT_EQ(header.scan_begin, whole.scan_begin);
}

// ---- Byte-exact scan round trips -------------------------------------------

struct RoundTripCase {
  int w, h, channels, quality, dri;
  jf::Subsampling sub;
  bool optimize;
};

class ScanRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(ScanRoundTrip, ByteExact) {
  const auto& p = GetParam();
  auto img = test_image(p.w, p.h, p.channels, 77 + p.w + p.quality);
  jf::JfifOptions opt;
  opt.quality = p.quality;
  opt.subsampling = p.sub;
  opt.restart_interval_mcus = p.dri;
  opt.optimize_huffman = p.optimize;
  auto file = jf::build_jfif(img, opt);
  expect_full_roundtrip(file);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScanRoundTrip,
    ::testing::Values(
        RoundTripCase{64, 64, 3, 85, 0, jf::Subsampling::k420, false},
        RoundTripCase{64, 64, 3, 85, 0, jf::Subsampling::k444, false},
        RoundTripCase{64, 64, 3, 85, 0, jf::Subsampling::k422, false},
        RoundTripCase{64, 64, 1, 85, 0, jf::Subsampling::k444, false},
        RoundTripCase{17, 23, 3, 85, 0, jf::Subsampling::k420, false},
        RoundTripCase{8, 8, 3, 85, 0, jf::Subsampling::k444, false},
        RoundTripCase{9, 9, 3, 85, 0, jf::Subsampling::k420, false},
        RoundTripCase{200, 120, 3, 25, 0, jf::Subsampling::k420, false},
        RoundTripCase{200, 120, 3, 95, 0, jf::Subsampling::k420, false},
        RoundTripCase{128, 96, 3, 85, 4, jf::Subsampling::k420, false},
        RoundTripCase{128, 96, 3, 85, 1, jf::Subsampling::k420, false},
        RoundTripCase{128, 96, 3, 85, 7, jf::Subsampling::k444, false},
        RoundTripCase{96, 96, 3, 85, 0, jf::Subsampling::k420, true},
        RoundTripCase{96, 96, 1, 60, 3, jf::Subsampling::k444, true},
        RoundTripCase{321, 201, 3, 70, 11, jf::Subsampling::k422, true}));

TEST(ScanHandover, SplitAtEveryRowMatchesWholeEncode) {
  auto img = test_image(96, 128, 3, 11);
  jf::JfifOptions opt;
  opt.restart_interval_mcus = 3;  // exercise RST interaction with handover
  auto file = jf::build_jfif(img, opt);
  auto parsed = jf::parse_jpeg({file.data(), file.size()});
  auto dec = jf::decode_scan(parsed);
  auto whole = jf::encode_scan(parsed, dec.coeffs, dec.pad_bit, dec.rst_count);
  ASSERT_EQ(whole.size(), parsed.scan_bytes().size());

  for (std::size_t split = 1;
       split < static_cast<std::size_t>(parsed.frame.mcus_y); ++split) {
    jf::ScanEncodeParams a;
    a.start_mcu_row = 0;
    a.end_mcu_row = static_cast<int>(split);
    a.pad_bit = dec.pad_bit;
    a.rst_count_limit = dec.rst_count;
    a.final_segment = false;
    jf::HuffmanHandover mid;
    auto part1 = jf::encode_scan_rows(parsed, dec.coeffs, a, &mid);

    // The recorded row boundary must agree with the writer's state.
    const auto& rb = dec.row_boundaries[split].handover;
    EXPECT_EQ(mid.pos.byte_off, rb.pos.byte_off);
    EXPECT_EQ(mid.pos.bit_off, rb.pos.bit_off);
    EXPECT_EQ(mid.partial_byte, rb.partial_byte);
    EXPECT_EQ(mid.dc_pred, rb.dc_pred);
    EXPECT_EQ(mid.rst_seen, rb.rst_seen);

    jf::ScanEncodeParams b;
    b.start_mcu_row = static_cast<int>(split);
    b.end_mcu_row = parsed.frame.mcus_y;
    b.handover = mid;
    b.pad_bit = dec.pad_bit;
    b.rst_count_limit = dec.rst_count;
    b.final_segment = true;
    auto part2 = jf::encode_scan_rows(parsed, dec.coeffs, b, nullptr);

    std::vector<std::uint8_t> cat = part1;
    cat.insert(cat.end(), part2.begin(), part2.end());
    ASSERT_EQ(cat, whole) << "split at row " << split;
  }
}

TEST(ScanHandover, ResumeFromRecordedBoundary) {
  // Encode only the second half directly from the decoder-recorded
  // handover — without ever producing the first half — and compare with the
  // original scan's byte range. This is exactly what an independently
  // retrieved storage chunk must be able to do (§3.4).
  auto img = test_image(80, 160, 3, 13);
  auto file = jf::build_jfif(img, {});
  auto parsed = jf::parse_jpeg({file.data(), file.size()});
  auto dec = jf::decode_scan(parsed);
  int mid_row = parsed.frame.mcus_y / 2;
  const auto& rb = dec.row_boundaries[mid_row].handover;

  jf::ScanEncodeParams p;
  p.start_mcu_row = mid_row;
  p.end_mcu_row = parsed.frame.mcus_y;
  p.handover = rb;
  p.pad_bit = dec.pad_bit;
  p.rst_count_limit = dec.rst_count;
  p.final_segment = true;
  auto part = jf::encode_scan_rows(parsed, dec.coeffs, p, nullptr);

  auto scan = parsed.scan_bytes();
  ASSERT_EQ(rb.pos.byte_off + part.size(), scan.size());
  EXPECT_TRUE(std::equal(part.begin(), part.end(),
                         scan.begin() + static_cast<std::ptrdiff_t>(rb.pos.byte_off)));
}

TEST(ScanDecoder, ZeroWipedRstTailStillRoundTrips) {
  // §A.3: hardware sync failures replace the tail of the scan — including
  // the expected RST markers — with runs of zeroes. The RST-count mechanism
  // plus the verbatim trailing-data section must make such files round-trip
  // whenever decode completes. We construct one deterministically: wipe
  // from mid-scan to the end and extend with enough zero bytes that the
  // Huffman decode of zero bits can complete every remaining MCU.
  auto img = test_image(64, 256, 1, 17);
  jf::JfifOptions opt;
  opt.restart_interval_mcus = 8;
  auto file = jf::build_jfif(img, opt);
  auto parsed = jf::parse_jpeg({file.data(), file.size()});

  std::vector<std::uint8_t> mutated(file.begin(),
                                    file.begin() + static_cast<std::ptrdiff_t>(
                                                       (parsed.scan_begin +
                                                        parsed.scan_end) /
                                                       2));
  // Zero bits decode to dense all-ones blocks (~24 bytes/block with the
  // standard tables); size generously so decode cannot truncate.
  std::size_t remaining_blocks = static_cast<std::size_t>(parsed.frame.mcus_x) *
                                 parsed.frame.mcus_y;
  mutated.insert(mutated.end(), remaining_blocks * 64, 0x00);
  // No EOI: the wipe took the end of the file with it.

  auto p2 = jf::parse_jpeg({mutated.data(), mutated.size()});
  EXPECT_FALSE(p2.has_eoi);
  auto d2 = jf::decode_scan(p2);
  // Some RSTs were wiped: the count must be lower than the intact file's.
  auto d1 = jf::decode_scan(parsed);
  EXPECT_LT(d2.rst_count, d1.rst_count);
  EXPECT_FALSE(d2.trailing_scan.empty());
  auto rebuilt = jf::reconstruct_file(p2, d2);
  EXPECT_EQ(rebuilt, mutated);
}

TEST(ScanDecoder, TruncationClassified) {
  auto img = test_image(64, 64, 3, 19);
  auto file = jf::build_jfif(img, {});
  auto parsed = jf::parse_jpeg({file.data(), file.size()});
  std::vector<std::uint8_t> cut(file.begin(),
                                file.begin() + static_cast<std::ptrdiff_t>(
                                                   parsed.scan_begin + 10));
  ExitCode code = classify({cut.data(), cut.size()});
  EXPECT_NE(code, ExitCode::kSuccess);
}

TEST(ScanDecoder, ComponentBitTalliesCoverScan) {
  auto img = test_image(160, 120, 3, 23);
  auto file = jf::build_jfif(img, {});
  auto parsed = jf::parse_jpeg({file.data(), file.size()});
  auto dec = jf::decode_scan(parsed);
  const auto& st = dec.stats;
  // T counts every consumed entropy bit plus 16 bits per RST marker.
  std::uint64_t t = st.bits_dc + st.bits_ac77 + st.bits_edge + st.bits_overhead;
  std::uint64_t scan_bits = parsed.scan_bytes().size() * 8;
  std::uint64_t stuffing = 0;
  auto sb = parsed.scan_bytes();
  for (std::size_t i = 0; i + 1 < sb.size(); ++i) {
    if (sb[i] == 0xFF && sb[i + 1] == 0x00) {
      ++stuffing;
      ++i;
    }
  }
  // scan = consumed data bits + stuffed bytes + markers + unconsumed tail.
  std::uint64_t tail_bits = dec.trailing_scan.size() * 8 -
                            static_cast<std::uint64_t>(dec.end_state.pos.bit_off);
  EXPECT_EQ(scan_bits, t + stuffing * 8 + tail_bits);
  EXPECT_GT(st.bits_ac77, 0u);
  EXPECT_GT(st.bits_dc, 0u);
}

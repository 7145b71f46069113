// Integration tests for the Lepton codec: exact round trips across thread
// counts (up to the kMaxSegments clamp), streaming decode, 4-MiB-chunk
// independence, determinism, the committed golden container (read and write
// paths), the transparent-store admit gate, and hostile-container handling.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <string>

#include "corpus/corpus.h"
#include "jpeg/jfif_builder.h"
#include "lepton/format.h"
#include "lepton/lepton.h"
#include "util/rng.h"

namespace jf = lepton::jpegfmt;
using lepton::util::ExitCode;

namespace {

jf::RasterImage photo_like(int w, int h, std::uint64_t seed, int channels = 3) {
  jf::RasterImage img;
  img.width = w;
  img.height = h;
  img.channels = channels;
  img.pixels.resize(static_cast<std::size_t>(w) * h * channels);
  lepton::util::Rng rng(seed);
  double cx = w * rng.uniform(0.2, 0.8), cy = h * rng.uniform(0.2, 0.8);
  int edge = static_cast<int>(rng.below(static_cast<std::uint64_t>(w)));
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double d = std::sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy));
      for (int c = 0; c < channels; ++c) {
        double v = 110 + 70 * std::sin(d / (10.0 + 5 * c)) +
                   (x > edge ? 30 : 0) +
                   0.3 * static_cast<double>(rng.below(30));
        img.pixels[(static_cast<std::size_t>(y) * w + x) * channels + c] =
            static_cast<std::uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
      }
    }
  }
  return img;
}

std::vector<std::uint8_t> make_jpeg(int w, int h, std::uint64_t seed,
                                    jf::JfifOptions opt = {},
                                    int channels = 3) {
  return jf::build_jfif(photo_like(w, h, seed, channels), opt);
}

std::vector<std::uint8_t> read_fixture(const char* name) {
  std::ifstream f(std::string(LEPTON_TEST_DATA_DIR) + "/" + name,
                  std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

}  // namespace

struct CodecCase {
  int w, h;
  int seed;  // varies the synthetic image between cases of equal width
  int dri;
  int force_threads;  // 0 = size policy; 1 = "Lepton 1-way"
  jf::Subsampling sub;
};

class LeptonRoundTrip : public ::testing::TestWithParam<CodecCase> {};

TEST_P(LeptonRoundTrip, ExactBytes) {
  const auto& p = GetParam();
  jf::JfifOptions jopt;
  jopt.subsampling = p.sub;
  jopt.restart_interval_mcus = p.dri;
  auto file = make_jpeg(p.w, p.h, 500 + p.w + p.seed, jopt);

  lepton::EncodeOptions opt;
  opt.force_threads = p.force_threads;
  auto enc = lepton::encode_jpeg({file.data(), file.size()}, opt);
  ASSERT_TRUE(enc.ok()) << enc.message;
  EXPECT_LT(enc.data.size(), file.size()) << "must actually compress";

  auto dec = lepton::decode_lepton({enc.data.data(), enc.data.size()});
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec.data.size(), file.size());
  EXPECT_EQ(dec.data, file);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LeptonRoundTrip,
    ::testing::Values(
        CodecCase{96, 96, 1, 0, 0, jf::Subsampling::k420},
        CodecCase{96, 96, 2, 0, 0, jf::Subsampling::k420},
        CodecCase{256, 256, 4, 0, 0, jf::Subsampling::k420},
        CodecCase{256, 192, 8, 0, 0, jf::Subsampling::k444},
        CodecCase{256, 192, 8, 0, 0, jf::Subsampling::k422},
        CodecCase{200, 600, 8, 5, 0, jf::Subsampling::k420},
        CodecCase{200, 600, 8, 1, 0, jf::Subsampling::k444},
        CodecCase{320, 240, 4, 0, 1, jf::Subsampling::k420},
        CodecCase{17, 9, 8, 0, 0, jf::Subsampling::k420},
        CodecCase{8, 8, 1, 0, 0, jf::Subsampling::k444}));

TEST(LeptonCodec, GrayscaleRoundTrip) {
  auto file = make_jpeg(300, 200, 42, {}, 1);
  auto enc = lepton::encode_jpeg({file.data(), file.size()});
  ASSERT_TRUE(enc.ok()) << enc.message;
  auto dec = lepton::decode_lepton({enc.data.data(), enc.data.size()});
  EXPECT_EQ(dec.data, file);
}

TEST(LeptonCodec, TrailingGarbageAndThumbnailConcat) {
  // §A.3: cameras append TV-format data / concatenated second JPEGs. Lepton
  // compresses the leading JPEG and carries the rest verbatim.
  auto file = make_jpeg(128, 128, 43);
  auto second = make_jpeg(32, 32, 44);
  std::vector<std::uint8_t> concat = file;
  concat.insert(concat.end(), second.begin(), second.end());
  auto enc = lepton::encode_jpeg({concat.data(), concat.size()});
  ASSERT_TRUE(enc.ok()) << enc.message;
  auto dec = lepton::decode_lepton({enc.data.data(), enc.data.size()});
  EXPECT_EQ(dec.data, concat);
}

TEST(LeptonCodec, DeterministicAcrossRuns) {
  auto file = make_jpeg(200, 150, 45);
  lepton::EncodeOptions opt;
  opt.force_threads = 4;
  auto a = lepton::encode_jpeg({file.data(), file.size()}, opt);
  auto b = lepton::encode_jpeg({file.data(), file.size()}, opt);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.data, b.data) << "encode must be deterministic (§5.2)";
  // A context with no pool workers runs every segment on the calling
  // thread: the serial schedule.
  lepton::CodecContext serial(0);
  auto c = serial.encode({file.data(), file.size()}, opt);
  EXPECT_EQ(a.data, c.data) << "parallel and serial encode must agree";
  auto d1 = lepton::decode_lepton({a.data.data(), a.data.size()});
  auto d2 = serial.decode({a.data.data(), a.data.size()});
  EXPECT_EQ(d1.data, d2.data) << "parallel and serial decode must agree";
}

TEST(LeptonCodec, StreamingDecodeDeliversFirstBytesEarly) {
  auto file = make_jpeg(512, 512, 46);
  auto enc = lepton::encode_jpeg({file.data(), file.size()});
  ASSERT_TRUE(enc.ok());
  lepton::VectorSink inner;
  lepton::TimingSink timing(&inner);
  ASSERT_EQ(lepton::decode_lepton({enc.data.data(), enc.data.size()}, timing),
            ExitCode::kSuccess);
  EXPECT_EQ(inner.data, file);
  EXPECT_GT(timing.ttfb_seconds(), 0.0);
  EXPECT_EQ(timing.bytes(), file.size());
}

TEST(LeptonCodec, ThreadPolicyMatchesPaperCutoffs) {
  EXPECT_EQ(lepton::threads_for_size(50u << 10), 1);
  EXPECT_EQ(lepton::threads_for_size(300u << 10), 2);
  EXPECT_EQ(lepton::threads_for_size(1u << 20), 4);
  EXPECT_EQ(lepton::threads_for_size(4u << 20), 8);
}

TEST(LeptonCodec, OneWayCompressesBetterThanEightWay) {
  // §3.4: each thread's model adapts independently, so more threads = less
  // compression. 1-way must beat 8-way on the same file.
  auto file = make_jpeg(512, 512, 47);
  lepton::EncodeOptions one;
  one.force_threads = 1;
  lepton::EncodeOptions eight;
  eight.force_threads = 8;
  auto a = lepton::encode_jpeg({file.data(), file.size()}, one);
  auto b = lepton::encode_jpeg({file.data(), file.size()}, eight);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a.data.size(), b.data.size());
}

TEST(LeptonCodec, RejectionsAreClassified) {
  std::vector<std::uint8_t> junk = {0xFF, 0xD8, 1, 2, 3, 4, 5};
  EXPECT_EQ(lepton::encode_jpeg({junk.data(), junk.size()}).code,
            ExitCode::kNotAnImage);
  auto file = make_jpeg(64, 64, 48);
  for (std::size_t i = 0; i + 1 < file.size(); ++i) {
    if (file[i] == 0xFF && file[i + 1] == 0xC0) {
      file[i + 1] = 0xC2;
      break;
    }
  }
  EXPECT_EQ(lepton::encode_jpeg({file.data(), file.size()}).code,
            ExitCode::kProgressive);
}

TEST(LeptonCodec, HostileContainersNeverCrash) {
  auto file = make_jpeg(128, 128, 49);
  auto enc = lepton::encode_jpeg({file.data(), file.size()});
  ASSERT_TRUE(enc.ok());
  lepton::util::Rng rng(50);
  // Bit flips, truncations, and garbage: decode must always return a
  // classified code or (for payload-area flips) wrong-but-bounded bytes.
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = enc.data;
    int kind = trial % 3;
    if (kind == 0) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    } else if (kind == 1) {
      mutated.resize(rng.below(mutated.size()));
    } else {
      for (int i = 0; i < 16; ++i) {
        mutated[rng.below(mutated.size())] =
            static_cast<std::uint8_t>(rng.below(256));
      }
    }
    lepton::VectorSink sink;
    (void)lepton::decode_lepton({mutated.data(), mutated.size()}, sink);
  }
  SUCCEED();
}

TEST(LeptonCodec, ForcedThreadsClampToAddressableSegments) {
  // A section header names its segment in one byte, so a forced thread
  // count above kMaxSegments (256) must clamp to it, not write a container
  // the parser rejects. 64x4800 grayscale has 600 MCU rows.
  auto file = make_jpeg(64, 4800, 52, {}, 1);
  lepton::EncodeOptions opt;
  opt.force_threads = 300;
  auto enc = lepton::encode_jpeg({file.data(), file.size()}, opt);
  ASSERT_TRUE(enc.ok()) << enc.message;
  auto parsed =
      lepton::core::parse_container({enc.data.data(), enc.data.size()});
  EXPECT_EQ(parsed.header.segments.size(), lepton::core::kMaxSegments);
  auto dec = lepton::decode_lepton({enc.data.data(), enc.data.size()});
  ASSERT_EQ(dec.code, ExitCode::kSuccess);
  EXPECT_EQ(dec.data, file);
}

// ---- Golden container --------------------------------------------------------
//
// tests/data/golden_v2.lep is golden_v2.jpg encoded with force_threads = 2
// by an earlier build. It pins both directions of the one container format:
// today's decoder must read it, and today's encoder must write it again.

TEST(LeptonCodec, GoldenV2FixtureDecodesByteIdentically) {
  auto jpeg = read_fixture("golden_v2.jpg");
  auto lep = read_fixture("golden_v2.lep");
  ASSERT_FALSE(jpeg.empty());
  ASSERT_FALSE(lep.empty());
  ASSERT_EQ(lep[2], lepton::core::kFormatVersion);

  lepton::VectorSink sink;
  lepton::DecodeStats stats;
  ASSERT_EQ(lepton::decode_lepton({lep.data(), lep.size()}, sink, {},
                                  lepton::default_context(), &stats),
            ExitCode::kSuccess);
  EXPECT_EQ(sink.data, jpeg);
  EXPECT_FALSE(stats.payload_overrun);
  EXPECT_TRUE(stats.payload_exhausted);
}

TEST(LeptonCodec, GoldenV2FixtureReencodesByteIdentically) {
  auto jpeg = read_fixture("golden_v2.jpg");
  auto lep = read_fixture("golden_v2.lep");
  ASSERT_FALSE(jpeg.empty());
  ASSERT_FALSE(lep.empty());
  lepton::EncodeOptions opt;
  opt.force_threads = 2;
  auto enc = lepton::encode_jpeg({jpeg.data(), jpeg.size()}, opt);
  ASSERT_TRUE(enc.ok()) << enc.message;
  EXPECT_EQ(enc.data, lep) << "the encoder's output format changed";
}

// ---- Chunk layer -----------------------------------------------------------

TEST(ChunkCodec, ChunksConcatenateToOriginal) {
  auto file = make_jpeg(640, 640, 51);
  ASSERT_GT(file.size(), 3u * 12000);
  lepton::ChunkCodec cc({}, /*chunk_size=*/12000);  // small chunks: many cuts
  auto set = cc.encode_chunks({file.data(), file.size()});
  ASSERT_TRUE(set.ok()) << set.message;
  ASSERT_GT(set.chunks.size(), 3u);

  std::vector<std::uint8_t> reassembled;
  for (const auto& ch : set.chunks) {
    auto part = cc.decode_chunk({ch.data(), ch.size()});
    ASSERT_TRUE(part.ok());
    reassembled.insert(reassembled.end(), part.data.begin(), part.data.end());
  }
  EXPECT_EQ(reassembled, file);
}

TEST(ChunkCodec, EachChunkDecodesInIsolationAndInAnyOrder) {
  auto file = make_jpeg(512, 768, 52);
  lepton::ChunkCodec cc({}, 16384);
  auto set = cc.encode_chunks({file.data(), file.size()});
  ASSERT_TRUE(set.ok());
  // Decode in reverse order, each chunk standalone (§3.4: client software
  // retrieves each chunk independently).
  std::vector<std::vector<std::uint8_t>> parts(set.chunks.size());
  for (std::size_t i = set.chunks.size(); i-- > 0;) {
    auto r = cc.decode_chunk({set.chunks[i].data(), set.chunks[i].size()});
    ASSERT_TRUE(r.ok());
    lepton::ChunkInfo info;
    ASSERT_EQ(lepton::ChunkCodec::chunk_info(
                  {set.chunks[i].data(), set.chunks[i].size()}, &info),
              ExitCode::kSuccess);
    EXPECT_EQ(info.offset, i * 16384);
    EXPECT_EQ(r.data.size(), info.length);
    EXPECT_TRUE(std::equal(r.data.begin(), r.data.end(),
                           file.begin() + static_cast<std::ptrdiff_t>(
                                              info.offset)));
    parts[i] = std::move(r.data);
  }
}

TEST(ChunkCodec, ChunkBoundaryInsideHeader) {
  // A big COM segment pushes the first chunk boundary inside the header.
  jf::JfifOptions jopt;
  jopt.comment.assign(9000, 0x55);
  auto file = make_jpeg(256, 256, 53, jopt);
  lepton::ChunkCodec cc({}, 4096);
  auto set = cc.encode_chunks({file.data(), file.size()});
  ASSERT_TRUE(set.ok());
  std::vector<std::uint8_t> reassembled;
  for (const auto& ch : set.chunks) {
    auto part = cc.decode_chunk({ch.data(), ch.size()});
    ASSERT_TRUE(part.ok());
    reassembled.insert(reassembled.end(), part.data.begin(), part.data.end());
  }
  EXPECT_EQ(reassembled, file);
}

TEST(ChunkCodec, SavingsCloseToWholeFile) {
  // Chunking costs a little (per-chunk headers, model restarts) but must
  // stay within a few percent of whole-file compression (§4: the deployed
  // system is chunk-by-chunk and still achieves the paper's ratios).
  auto file = make_jpeg(700, 700, 54);
  auto whole = lepton::encode_jpeg({file.data(), file.size()});
  ASSERT_TRUE(whole.ok());
  lepton::ChunkCodec cc({}, 32768);
  auto set = cc.encode_chunks({file.data(), file.size()});
  ASSERT_TRUE(set.ok());
  std::size_t total = 0;
  for (const auto& ch : set.chunks) total += ch.size();
  EXPECT_LT(total, file.size());
  EXPECT_LT(static_cast<double>(total),
            static_cast<double>(whole.data.size()) * 1.10);
}

// ---- Transparent store -----------------------------------------------------

TEST(TransparentStore, AdmitsJpegAsLepton) {
  auto file = make_jpeg(160, 120, 55);
  lepton::TransparentStore store;
  lepton::PutStats stats;
  auto obj = store.put({file.data(), file.size()}, &stats);
  EXPECT_EQ(obj.kind, lepton::StorageKind::kLepton);
  EXPECT_EQ(stats.lepton_code, ExitCode::kSuccess);
  EXPECT_TRUE(stats.roundtrip_ok);
  EXPECT_EQ(stats.bytes_in, file.size());
  EXPECT_EQ(stats.bytes_out, obj.payload.size());
  EXPECT_LT(stats.bytes_out, stats.bytes_in);
  auto back = store.get(obj);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.data, file);
}

TEST(TransparentStore, FallsBackToDeflateForNonJpeg) {
  std::vector<std::uint8_t> text(20000);
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<std::uint8_t>("lorem ipsum "[i % 12]);
  }
  lepton::TransparentStore store;
  lepton::PutStats stats;
  auto obj = store.put({text.data(), text.size()}, &stats);
  EXPECT_EQ(obj.kind, lepton::StorageKind::kDeflate);
  EXPECT_EQ(stats.lepton_code, ExitCode::kNotAnImage);
  EXPECT_FALSE(stats.roundtrip_ok);
  EXPECT_EQ(stats.bytes_in, text.size());
  EXPECT_EQ(stats.bytes_out, obj.payload.size());
  auto back = store.get(obj);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.data, text);
}

TEST(TransparentStore, ShutoffSwitchSkipsLepton) {
  auto file = make_jpeg(96, 96, 56);
  lepton::TransparentStore store;
  store.set_shutoff(true);  // §5.7: 30-second fleet-wide disable
  lepton::PutStats stats;
  auto obj = store.put({file.data(), file.size()}, &stats);
  EXPECT_EQ(obj.kind, lepton::StorageKind::kDeflate);
  EXPECT_EQ(stats.lepton_code, ExitCode::kServerShutdown);
  EXPECT_EQ(store.get(obj).data, file);
}

TEST(TransparentStore, DetectsPayloadCorruption) {
  auto file = make_jpeg(96, 96, 57);
  lepton::TransparentStore store;
  auto obj = store.put({file.data(), file.size()});
  obj.payload[obj.payload.size() / 2] ^= 0xFF;
  auto back = store.get(obj);
  EXPECT_FALSE(back.ok()) << "md5 gate must catch modified payloads (§5.7)";
}

TEST(TransparentStore, GateRejectsUnconsumedPayloadThatDecodesExactly) {
  // Bytes appended to a segment's arithmetic stream (and declared in the
  // header) leave the decoded output untouched, so only the consumption
  // facts tell this container from a clean one. The §5.7 gate that put(),
  // admit_converted() and qualification share must reject it.
  auto file = make_jpeg(128, 96, 58);
  lepton::EncodeOptions opt;
  opt.force_threads = 1;
  auto enc = lepton::encode_jpeg({file.data(), file.size()}, opt);
  ASSERT_TRUE(enc.ok());
  ASSERT_EQ(lepton::roundtrip_gate(file, enc.data), ExitCode::kSuccess);
  lepton::TransparentStore store;
  for (std::size_t extra : {1u, 16u}) {
    auto pc = lepton::core::parse_container({enc.data.data(), enc.data.size()});
    pc.arith[0].insert(pc.arith[0].end(), extra, 0xA5);
    auto padded = lepton::core::serialize_container(pc.header, pc.arith);

    lepton::VectorSink sink;
    lepton::DecodeStats stats;
    ASSERT_EQ(lepton::decode_lepton({padded.data(), padded.size()}, sink, {},
                                    lepton::default_context(), &stats),
              ExitCode::kSuccess)
        << extra;
    EXPECT_EQ(sink.data, file) << extra;
    EXPECT_FALSE(stats.payload_exhausted) << extra;

    EXPECT_EQ(lepton::roundtrip_gate(file, padded),
              ExitCode::kRoundtripFailed)
        << extra;
    lepton::StoredObject obj;
    lepton::PutStats ps;
    EXPECT_FALSE(store.admit_converted(file, padded, &obj, &ps)) << extra;
    EXPECT_EQ(ps.lepton_code, ExitCode::kRoundtripFailed) << extra;
    EXPECT_FALSE(ps.roundtrip_ok) << extra;
  }
}

// ---- Qualification ---------------------------------------------------------

TEST(Qualification, CleanCorpusQualifies) {
  lepton::QualificationRunner runner;
  lepton::QualificationReport rep;
  for (int i = 0; i < 6; ++i) {
    auto file = make_jpeg(100 + 30 * i, 80 + 20 * i, 600 + i);
    runner.run_file({file.data(), file.size()}, &rep);
  }
  EXPECT_EQ(rep.files, 6u);
  EXPECT_EQ(rep.admitted, 6u);
  EXPECT_TRUE(rep.clean());
}

TEST(Qualification, DetectorCatchesInjectedNondeterminism) {
  lepton::QualificationRunner runner;
  runner.set_second_decode_mutator(
      [](std::vector<std::uint8_t>& data) { data[data.size() / 2] ^= 1; });
  lepton::QualificationReport rep;
  auto file = make_jpeg(120, 90, 77);
  runner.run_file({file.data(), file.size()}, &rep);
  EXPECT_EQ(rep.nondeterminism, 1u);
  EXPECT_FALSE(rep.clean());
  EXPECT_FALSE(rep.alerts.empty());
}

TEST(Qualification, RejectionsCountedByExitCode) {
  lepton::QualificationRunner runner;
  lepton::QualificationReport rep;
  std::vector<std::uint8_t> junk = {0xFF, 0xD8, 9, 9, 9};
  runner.run_file({junk.data(), junk.size()}, &rep);
  EXPECT_EQ(rep.rejected, 1u);
  EXPECT_EQ(rep.by_code[static_cast<std::size_t>(ExitCode::kNotAnImage)], 1u);
}

TEST(ChunkCodec, WholeCorpusChunksReassemble) {
  // Integration sweep: every admissible corpus file — including restart
  // markers, grayscale, optimized-Huffman, trailing garbage, concatenated
  // and zero-wiped variants — chunks and reassembles byte-exactly; files
  // Lepton rejects are classified, never mangled.
  lepton::corpus::CorpusOptions copts;
  copts.valid_files = 6;
  copts.min_bytes = 20 << 10;
  copts.max_bytes = 60 << 10;
  auto corpus = lepton::corpus::build_corpus(copts);
  lepton::ChunkCodec cc({}, 8192);
  int admitted = 0, rejected = 0;
  for (const auto& f : corpus) {
    auto set = cc.encode_chunks({f.bytes.data(), f.bytes.size()});
    if (!set.ok()) {
      ++rejected;
      EXPECT_NE(set.code, ExitCode::kSuccess);
      continue;
    }
    std::vector<std::uint8_t> reassembled;
    for (const auto& ch : set.chunks) {
      auto part = cc.decode_chunk({ch.data(), ch.size()});
      ASSERT_TRUE(part.ok()) << f.label;
      reassembled.insert(reassembled.end(), part.data.begin(),
                         part.data.end());
    }
    EXPECT_EQ(reassembled, f.bytes) << f.label;
    ++admitted;
  }
  EXPECT_GT(admitted, 6);  // valid files + round-trippable anomalies
  EXPECT_GT(rejected, 2);  // progressive/CMYK/non-image classified
}

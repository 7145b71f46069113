// Hot-path microbench: measures the primitives rewritten by the
// performance overhauls (batched 64-bit bit reader, bool-coder adaptive and
// literal paths, the encode-side context-plane pipeline), the first two
// against in-binary per-bit reference implementations, attributes the levers
// separately (bin cluster layout, SIMD Huffman re-encode, AVX2 IDCT pass,
// fused-refill scan parse, plane precompute, plane-fed model loop), and
// reports single-thread whole-codec encode/decode throughput and the corpus
// compression ratio through one warm CodecContext on the generated corpus.
// Appends one per-PR entry to the BENCH_hotpath.json *trajectory*
// (an array of entries; any existing entry for the same PR is replaced) so
// future PRs can diff against every predecessor (no google-benchmark
// dependency: plain steady_clock with best-of-N via bench::best_of).
//
// Flags: --full for the larger corpus band, --out <path> for the JSON,
// --pr <n> for the trajectory entry id (default: this PR).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "coding/bool_coder.h"
#include "coding/coder_ops.h"
#include "jpeg/dct.h"
#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "jpeg/scan_encoder.h"
#include "jpeg/stuffed_bitio.h"
#include "lepton/context.h"
#include "lepton/lepton.h"
#include "model/block_codec.h"
#include "model/context_plane.h"
#include "model/model.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace {

using bench::best_of;

// Optimizer barrier: forces `v` to be materialized (the measured loops
// otherwise have no observable effect and get dead-code-eliminated).
template <typename T>
inline void keep(T&& v) {
  asm volatile("" : : "g"(v) : "memory");
}

// ---- bit reader: batched get_bits vs the per-bit loop it replaced ----------

std::vector<std::uint8_t> make_stuffed_stream(std::size_t bytes) {
  lepton::util::Rng rng(404);
  std::vector<std::uint8_t> scan;
  scan.reserve(bytes + bytes / 200);
  for (std::size_t i = 0; i < bytes; ++i) {
    auto b = static_cast<std::uint8_t>(rng.below(256));
    scan.push_back(b);
    if (b == 0xFF) scan.push_back(0x00);
  }
  return scan;
}

double bit_reader_batched_mbps(const std::vector<std::uint8_t>& scan) {
  double s = best_of(5, [&] {
    lepton::jpegfmt::StuffedBitReader rd({scan.data(), scan.size()});
    std::int64_t sink = 0;
    for (;;) {
      std::int32_t v = rd.get_bits(11);
      if (v < 0) break;
      sink += v;
    }
    keep(sink);
  });
  return scan.size() / 1e6 / s;
}

double bit_reader_per_bit_mbps(const std::vector<std::uint8_t>& scan) {
  double s = best_of(5, [&] {
    lepton::jpegfmt::StuffedBitReader rd({scan.data(), scan.size()});
    std::int64_t sink = 0;
    for (;;) {
      // The pre-overhaul get_bits: one get_bit call per bit.
      std::int32_t v = 0;
      bool done = false;
      for (int i = 0; i < 11; ++i) {
        int b = rd.get_bit();
        if (b < 0) {
          done = true;
          break;
        }
        v = (v << 1) | b;
      }
      if (done) break;
      sink += v;
    }
    keep(sink);
  });
  return scan.size() / 1e6 / s;
}

// ---- bool coder -------------------------------------------------------------

struct BoolCoderRates {
  double encode_adaptive_mbits;
  double decode_adaptive_mbits;
  double encode_literal_mbits;
  double decode_literal_mbits;
};

BoolCoderRates bool_coder_rates() {
  const int n = 1 << 21;
  lepton::util::Rng rng(405);
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = rng.chance(0.3) ? 1 : 0;

  BoolCoderRates r{};
  std::vector<std::uint8_t> buf;
  r.encode_adaptive_mbits = n / 1e6 / best_of(3, [&] {
    lepton::coding::BoolEncoder enc(&buf);
    for (int i = 0; i < n; ++i) enc.put(bits[i] != 0, 179);
    enc.finish_into_buffer();
  });
  r.decode_adaptive_mbits = n / 1e6 / best_of(3, [&] {
    lepton::coding::BoolDecoder dec({buf.data(), buf.size()});
    int sink = 0;
    for (int i = 0; i < n; ++i) sink += dec.get(179);
    keep(sink);
  });

  const int lit_words = n / 16;
  std::vector<std::uint16_t> words(lit_words);
  for (auto& w : words) w = static_cast<std::uint16_t>(rng.next());
  r.encode_literal_mbits = n / 1e6 / best_of(3, [&] {
    lepton::coding::BoolEncoder enc(&buf);
    for (int i = 0; i < lit_words; ++i) enc.put_literal(words[i], 16);
    enc.finish_into_buffer();
  });
  r.decode_literal_mbits = n / 1e6 / best_of(3, [&] {
    lepton::coding::BoolDecoder dec({buf.data(), buf.size()});
    std::uint32_t sink = 0;
    for (int i = 0; i < lit_words; ++i) sink += dec.get_literal(16);
    keep(sink);
  });
  return r;
}

// ---- lever 1: bin cluster layout -------------------------------------------
//
// Codes the same value stream through the clustered 7x7 bins (model.h
// Coef77Bins) and through an in-binary replica of the pre-overhaul layout
// (exp/sign/res in three separate model-scale arrays). Identical coding
// work; only the bin addresses differ.

struct ScatteredC77 {  // the layout the clusters replaced
  lepton::coding::Branch exp[49][12][10][11];
  lepton::coding::Branch sign[49][12];
  lepton::coding::Branch res[49][12][10];
};

struct LayoutRates {
  double clustered_mvals;
  double scattered_mvals;
};

LayoutRates layout_lever() {
  const int n = 1 << 19;
  lepton::util::Rng rng(406);
  struct Ctx {
    std::uint16_t i, avg, rem;
    std::int16_t v;
  };
  std::vector<Ctx> work(n);
  for (auto& w : work) {
    w.i = static_cast<std::uint16_t>(rng.below(49));
    w.avg = static_cast<std::uint16_t>(rng.below(12));
    w.rem = static_cast<std::uint16_t>(rng.below(10));
    w.v = static_cast<std::int16_t>(rng.below(64)) - 32;
  }
  std::vector<std::uint8_t> buf;
  auto clustered = std::make_unique<lepton::model::KindModel>();
  double cs = best_of(3, [&] {
    lepton::coding::BoolEncoder enc(&buf);
    lepton::coding::EncodeOps ops{&enc};
    for (const auto& w : work) {
      auto& cb = clustered->c77.at(w.i).at(w.avg);
      lepton::coding::code_value(ops, cb.exp_row(w.rem), &cb.sign,
                                 cb.res.data(), 10, w.v);
    }
    enc.finish_into_buffer();
  });
  auto scattered = std::make_unique<ScatteredC77>();
  double ss = best_of(3, [&] {
    lepton::coding::BoolEncoder enc(&buf);
    lepton::coding::EncodeOps ops{&enc};
    for (const auto& w : work) {
      lepton::coding::code_value(ops, scattered->exp[w.i][w.avg][w.rem],
                                 &scattered->sign[w.i][w.avg],
                                 scattered->res[w.i][w.avg], 10, w.v);
    }
    enc.finish_into_buffer();
  });
  return {n / 1e6 / cs, n / 1e6 / ss};
}

// ---- lever 2: SIMD Huffman re-encode ---------------------------------------
//
// Re-encodes a real corpus file's scan (the decode path's per-row work)
// with SIMD dispatch active vs pinned to the scalar fallback.

struct ReencodeRates {
  double simd_mbps;
  double scalar_mbps;
};

ReencodeRates reencode_lever(const std::vector<std::uint8_t>& jpeg) {
  auto jf = lepton::jpegfmt::parse_jpeg({jpeg.data(), jpeg.size()});
  auto dec = lepton::jpegfmt::decode_scan(jf);
  double bytes = static_cast<double>(jf.scan_bytes().size());
  double ss = 0, cs = 0;
  lepton::util::force_simd_level(lepton::util::detected_simd());
  cs = best_of(5, [&] {
    auto scan = lepton::jpegfmt::encode_scan(jf, dec.coeffs, dec.pad_bit,
                                             dec.rst_count);
    keep(scan.size());
  });
  lepton::util::force_simd_level(lepton::util::SimdLevel::kScalar);
  ss = best_of(5, [&] {
    auto scan = lepton::jpegfmt::encode_scan(jf, dec.coeffs, dec.pad_bit,
                                             dec.rst_count);
    keep(scan.size());
  });
  lepton::util::clear_simd_override();
  return {bytes / 1e6 / cs, bytes / 1e6 / ss};
}

// ---- encode-path levers: scan parse, context plane, model loop -------------
//
// The staged encode pipeline's three stages, attributed separately:
// the fused-refill Huffman scan parse (MB/s over the real scan bytes),
// the context-plane precompute (Mblocks/s over the decoded coefficient
// images), and the plane-fed adaptive model loop (Mvalues/s over one
// segment encode per file).

struct EncodePathRates {
  double parse_mbps;
  double plane_precompute_mblocks;
  double model_plane_mvals;
};

// Coded values per block (count trees + coded coefficients + DC): the
// denominators for the model-loop Mvalues/s rates.
std::uint64_t coded_values_in(const lepton::jpegfmt::CoeffImage& ci) {
  const auto& order = lepton::model::interior77().zigzag_order;
  std::uint64_t vals = 0;
  for (const auto& comp : ci.comps) {
    for (int by = 0; by < comp.height_blocks; ++by) {
      for (int bx = 0; bx < comp.width_blocks; ++bx) {
        const std::int16_t* blk = comp.block(bx, by);
        vals += 4;  // nz77 tree + two edge trees + DC
        int nz = 0;
        for (int i = 0; i < lepton::model::kNum77; ++i) nz += blk[order[i]] != 0;
        int remaining = nz;
        for (int i = 0; i < lepton::model::kNum77 && remaining > 0; ++i) {
          ++vals;
          if (blk[order[i]] != 0) --remaining;
        }
        for (int orientation = 0; orientation < 2; ++orientation) {
          int count = 0;
          for (int i = 1; i < 8; ++i) {
            count += blk[orientation == 0 ? i * 8 : i] != 0;
          }
          for (int i = 1; i < 8 && count > 0; ++i) {
            ++vals;
            if (blk[orientation == 0 ? i * 8 : i] != 0) --count;
          }
        }
      }
    }
  }
  return vals;
}

EncodePathRates encode_path_levers(
    const std::vector<std::vector<std::uint8_t>>& files) {
  namespace jf = lepton::jpegfmt;
  namespace lm = lepton::model;
  std::vector<jf::JpegFile> jfs;
  std::vector<jf::ScanDecodeResult> decs;
  double scan_bytes = 0;
  std::uint64_t blocks = 0, values = 0;
  for (const auto& f : files) {
    jfs.push_back(jf::parse_jpeg({f.data(), f.size()}));
    scan_bytes += static_cast<double>(jfs.back().scan_bytes().size());
    decs.push_back(jf::decode_scan(jfs.back()));
    for (const auto& c : jfs.back().frame.comps) {
      blocks += static_cast<std::uint64_t>(c.width_blocks) * c.height_blocks;
    }
    values += coded_values_in(decs.back().coeffs);
  }

  EncodePathRates r{};
  // Stage 1: the fused-refill Huffman parse.
  r.parse_mbps = scan_bytes / 1e6 / best_of(5, [&] {
    for (const auto& j : jfs) {
      auto d = jf::decode_scan(j);
      keep(d.coeffs.comps.size());
    }
  });

  // Stage 2: the context-plane precompute alone, driven through the same
  // precompute_mcu_row wiring the encoder's plane path runs.
  lm::ContextPlane plane;
  lm::ModelOptions mo;
  const auto kernels = jf::simd::context_kernels();
  r.plane_precompute_mblocks = blocks / 1e6 / best_of(5, [&] {
    for (std::size_t fi = 0; fi < jfs.size(); ++fi) {
      const auto& frame = jfs[fi].frame;
      plane.reshape(frame);
      std::array<lm::EdgeTables, 4> et{};
      for (std::size_t c = 0; c < frame.comps.size(); ++c) {
        lm::build_edge_tables(et[c],
                              jfs[fi].qtables[frame.comps[c].quant_idx].q.data());
      }
      for (int my = 0; my < frame.mcus_y; ++my) {
        lm::precompute_mcu_row(plane, jfs[fi], decs[fi].coeffs, my, my > 0,
                               et.data(), mo, kernels);
      }
    }
  });

  // Stage 3: the whole plane-fed model loop (one segment over the image).
  auto pm = std::make_unique<lm::ProbabilityModel>();
  std::vector<std::uint8_t> buf;
  double tp = best_of(5, [&] {
    for (std::size_t fi = 0; fi < jfs.size(); ++fi) {
      pm->reset();
      lepton::coding::BoolEncoder enc(&buf);
      lm::SegmentCodec<lepton::coding::EncodeOps> codec(
          lepton::coding::EncodeOps{&enc}, *pm, jfs[fi], mo);
      codec.attach_plane(&plane);
      for (int my = 0; my < jfs[fi].frame.mcus_y; ++my) {
        codec.code_mcu_row(my, &decs[fi].coeffs);
      }
      enc.finish_into_buffer();
      keep(buf.size());
    }
  });
  r.model_plane_mvals = values / 1e6 / tp;
  return r;
}

// ---- lever 3: AVX2 IDCT column pass ----------------------------------------

struct IdctRates {
  double simd_ns;
  double scalar_ns;
};

IdctRates idct_lever() {
  lepton::util::Rng rng(408);
  const int nblocks = 512;
  std::vector<std::array<std::int16_t, 64>> blocks(nblocks);
  std::uint16_t q[64];
  for (auto& v : q) v = static_cast<std::uint16_t>(1 + rng.below(48));
  for (auto& b : blocks) {
    b.fill(0);
    int nz = static_cast<int>(rng.below(24));
    for (int i = 0; i < nz; ++i) {
      b[rng.below(64)] = static_cast<std::int16_t>(rng.below(256)) - 128;
    }
  }
  std::int32_t out[64];
  std::int64_t sink = 0;
  const int rounds = 40;
  auto run = [&] {
    for (int r = 0; r < rounds; ++r) {
      for (const auto& b : blocks) {
        lepton::jpegfmt::idct_8x8_dequant_ac(b.data(), q, out);
        sink += out[9];
      }
    }
  };
  lepton::util::force_simd_level(lepton::util::detected_simd());
  double cs = best_of(3, run);
  lepton::util::force_simd_level(lepton::util::SimdLevel::kScalar);
  double ss = best_of(3, run);
  lepton::util::clear_simd_override();
  keep(sink);
  double per = static_cast<double>(rounds) * nblocks;
  return {cs / per * 1e9, ss / per * 1e9};
}

}  // namespace

// This PR's trajectory entry id — the single place to bump per perf PR
// (run_bench.sh and CI inherit it; `--pr N` / PR=<n> override for
// re-measuring an old build).
constexpr int kCurrentPr = 6;

int main(int argc, char** argv) {
  bool full = bench::want_full(argc, argv);
  std::string out_path = "BENCH_hotpath.json";
  int pr = kCurrentPr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
    if (std::string(argv[i]) == "--pr") pr = std::atoi(argv[i + 1]);
  }

  bench::header("micro_hotpath: bit I/O, bool coder, single-thread codec",
                "Lepton decodes >300 MB/s/instance across 16 threads (§5.4); "
                "this tracks the single-thread hot paths that number rests on");

  // ---- primitives ----
  auto scan = make_stuffed_stream(full ? (8u << 20) : (2u << 20));
  double rd_batched = bit_reader_batched_mbps(scan);
  double rd_per_bit = bit_reader_per_bit_mbps(scan);
  auto bc = bool_coder_rates();
  std::printf("bit reader      : batched %7.1f MB/s   per-bit %7.1f MB/s   (%.2fx)\n",
              rd_batched, rd_per_bit, rd_batched / rd_per_bit);
  std::printf("bool coder      : adaptive enc %6.1f / dec %6.1f Mbit/s\n",
              bc.encode_adaptive_mbits, bc.decode_adaptive_mbits);
  std::printf("bool coder      : literal  enc %6.1f / dec %6.1f Mbit/s   (%.2fx enc)\n",
              bc.encode_literal_mbits, bc.decode_literal_mbits,
              bc.encode_literal_mbits / bc.encode_adaptive_mbits);

  // ---- adaptive-model levers, attributed separately ----
  auto lay = layout_lever();
  auto idct = idct_lever();
  std::printf("bin layout      : clustered %5.2f / scattered %5.2f Mvalues/s   (%.2fx)\n",
              lay.clustered_mvals, lay.scattered_mvals,
              lay.clustered_mvals / lay.scattered_mvals);
  std::printf("idct pass 2     : %s %6.1f / scalar %6.1f ns/block   (%.2fx)\n",
              lepton::util::simd_level_name(lepton::util::detected_simd()),
              idct.simd_ns, idct.scalar_ns, idct.scalar_ns / idct.simd_ns);

  // ---- whole-codec single-thread encode+decode on the generated corpus ----
  std::vector<std::vector<std::uint8_t>> files;
  std::size_t total = 0;
  for (const auto& f : bench::corpus(full)) {
    if (f.kind != lepton::corpus::FileKind::kBaselineJpeg) continue;
    files.push_back(f.bytes);
    total += f.bytes.size();
  }
  lepton::CodecContext ctx(1);
  lepton::EncodeOptions eopt;
  eopt.force_threads = 1;  // one segment: runs on the calling thread

  std::vector<std::vector<std::uint8_t>> encoded;
  std::size_t encoded_total = 0;
  for (const auto& f : files) {
    auto e = ctx.encode({f.data(), f.size()}, eopt);
    if (!e.ok()) {
      std::fprintf(stderr, "corpus encode failed: %s\n", e.message.c_str());
      return 1;
    }
    encoded_total += e.data.size();
    encoded.push_back(std::move(e.data));
  }
  double es = best_of(5, [&] {
    for (const auto& f : files) {
      auto e = ctx.encode({f.data(), f.size()}, eopt);
      if (!e.ok()) std::abort();
    }
  });
  double ds = best_of(5, [&] {
    for (const auto& e : encoded) {
      auto d = ctx.decode({e.data(), e.size()});
      if (!d.ok()) std::abort();
    }
  });
  double mb = total / 1e6;
  double enc_mbps = mb / es, dec_mbps = mb / ds;
  double combined = 2 * mb / (es + ds);
  std::printf("codec 1-thread  : encode %5.2f MB/s   decode %5.2f MB/s   combined %5.2f MB/s\n",
              enc_mbps, dec_mbps, combined);
  // Compressed/original bytes of the single-segment containers above
  // (recorded as corpus_ratio_v2, the key earlier entries use).
  double corpus_ratio =
      static_cast<double>(encoded_total) / static_cast<double>(total);
  std::printf("  (%zu corpus files, %.2f MB, warm CodecContext, best of 5; "
              "ratio %.4f)\n",
              files.size(), mb, corpus_ratio);

  // ---- SIMD re-encode lever (uses the first corpus file's real scan) ----
  auto re = reencode_lever(files.front());
  std::printf("scan re-encode  : %s %6.2f / scalar %6.2f MB/s   (%.2fx)\n",
              lepton::util::simd_level_name(lepton::util::detected_simd()),
              re.simd_mbps, re.scalar_mbps, re.simd_mbps / re.scalar_mbps);

  // ---- encode-path levers (staged pipeline attribution) ----
  auto ep = encode_path_levers(files);
  std::printf("scan parse      : fused refills %6.2f MB/s\n", ep.parse_mbps);
  std::printf("context plane   : precompute %5.2f Mblocks/s\n",
              ep.plane_precompute_mblocks);
  std::printf("model loop      : plane %5.2f Mvalues/s\n",
              ep.model_plane_mvals);

  std::vector<std::string> entries =
      bench::read_trajectory_entries(out_path, pr, "hotpath");
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "[\n");
  for (const auto& e : entries) std::fprintf(out, "%s,\n", e.c_str());
  std::fprintf(out,
               "{\n"
               "  \"pr\": %d,\n"
               "  \"bench\": \"hotpath\",\n"
               "  \"bit_reader_batched_MBps\": %.2f,\n"
               "  \"bit_reader_per_bit_MBps\": %.2f,\n"
               "  \"bit_reader_speedup\": %.3f,\n"
               "  \"bool_adaptive_encode_Mbps\": %.2f,\n"
               "  \"bool_adaptive_decode_Mbps\": %.2f,\n"
               "  \"bool_literal_encode_Mbps\": %.2f,\n"
               "  \"bool_literal_decode_Mbps\": %.2f,\n"
               "  \"bool_literal_encode_speedup\": %.3f,\n"
               "  \"layout_clustered_Mvals\": %.2f,\n"
               "  \"layout_scattered_Mvals\": %.2f,\n"
               "  \"layout_speedup\": %.3f,\n"
               "  \"reencode_simd_MBps\": %.2f,\n"
               "  \"reencode_scalar_MBps\": %.2f,\n"
               "  \"reencode_simd_speedup\": %.3f,\n"
               "  \"idct_simd_ns_per_block\": %.1f,\n"
               "  \"idct_scalar_ns_per_block\": %.1f,\n"
               "  \"idct_speedup\": %.3f,\n"
               "  \"encode_parse_MBps\": %.2f,\n"
               "  \"plane_precompute_Mblocks\": %.2f,\n"
               "  \"model_loop_plane_Mvals\": %.2f,\n"
               "  \"encode_plane_MBps\": %.2f,\n"
               "  \"corpus_ratio_v2\": %.4f,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"simd_level\": \"%s\",\n"
               "  \"codec_encode_MBps\": %.2f,\n"
               "  \"codec_decode_MBps\": %.2f,\n"
               "  \"codec_combined_MBps\": %.2f,\n"
               "  \"corpus_files\": %zu,\n"
               "  \"corpus_MB\": %.2f\n"
               "}\n"
               "]\n",
               pr, rd_batched, rd_per_bit, rd_batched / rd_per_bit,
               bc.encode_adaptive_mbits, bc.decode_adaptive_mbits,
               bc.encode_literal_mbits, bc.decode_literal_mbits,
               bc.encode_literal_mbits / bc.encode_adaptive_mbits,
               lay.clustered_mvals, lay.scattered_mvals,
               lay.clustered_mvals / lay.scattered_mvals, re.simd_mbps,
               re.scalar_mbps, re.simd_mbps / re.scalar_mbps, idct.simd_ns,
               idct.scalar_ns, idct.scalar_ns / idct.simd_ns, ep.parse_mbps,
               ep.plane_precompute_mblocks, ep.model_plane_mvals, enc_mbps,
               corpus_ratio,
               bench::hardware_concurrency(),
               lepton::util::simd_level_name(lepton::util::detected_simd()),
               enc_mbps, dec_mbps, combined, files.size(), mb);
  std::fclose(out);
  std::printf("\nwrote %s (trajectory entry pr=%d, %zu prior entries kept)\n",
              out_path.c_str(), pr, entries.size());
  return 0;
}

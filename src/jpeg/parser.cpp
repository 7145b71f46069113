#include "jpeg/parser.h"

namespace lepton::jpegfmt {
namespace {

using util::ExitCode;

constexpr std::uint8_t kSOI = 0xD8;
constexpr std::uint8_t kEOI = 0xD9;
constexpr std::uint8_t kSOS = 0xDA;
constexpr std::uint8_t kDQT = 0xDB;
constexpr std::uint8_t kDHT = 0xC4;
constexpr std::uint8_t kDRI = 0xDD;

[[noreturn]] void fail(ExitCode c, const char* msg) {
  throw ParseError(c, msg);
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> d) : d_(d) {}
  std::uint8_t u8() {
    if (pos_ >= d_.size()) fail(ExitCode::kNotAnImage, "truncated header");
    return d_[pos_++];
  }
  std::uint16_t u16be() {
    std::uint16_t hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
  }
  void skip(std::size_t n) {
    if (pos_ + n > d_.size()) fail(ExitCode::kNotAnImage, "truncated segment");
    pos_ += n;
  }
  std::span<const std::uint8_t> view(std::size_t n) {
    if (pos_ + n > d_.size()) fail(ExitCode::kNotAnImage, "truncated segment");
    auto s = d_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::size_t pos() const { return pos_; }

 private:
  std::span<const std::uint8_t> d_;
  std::size_t pos_ = 0;
};

void parse_dqt(Cursor& c, std::size_t seg_len, JpegFile& jf) {
  std::size_t end = c.pos() + seg_len;
  while (c.pos() < end) {
    std::uint8_t pq_tq = c.u8();
    int precision = pq_tq >> 4;
    int id = pq_tq & 15;
    if (id > 3) fail(ExitCode::kNotAnImage, "DQT id > 3");
    if (precision != 0) {
      // 16-bit tables are for 12-bit sample data; not baseline.
      fail(ExitCode::kUnsupportedJpeg, "16-bit DQT");
    }
    auto raw = c.view(64);
    // DQT stores entries in zigzag order; we keep natural order.
    for (int k = 0; k < 64; ++k) {
      jf.qtables[id].q[kZigzag[k]] = raw[k];
    }
    for (int k = 0; k < 64; ++k) {
      if (jf.qtables[id].q[k] == 0) {
        fail(ExitCode::kNotAnImage, "zero quantizer");
      }
    }
    jf.qtables[id].defined = true;
  }
  if (c.pos() != end) fail(ExitCode::kNotAnImage, "DQT length mismatch");
}

void parse_dht(Cursor& c, std::size_t seg_len, JpegFile& jf) {
  std::size_t end = c.pos() + seg_len;
  while (c.pos() < end) {
    std::uint8_t tc_th = c.u8();
    int klass = tc_th >> 4;  // 0 = DC, 1 = AC
    int id = tc_th & 15;
    if (klass > 1 || id > 3) fail(ExitCode::kNotAnImage, "DHT class/id");
    auto counts = c.view(16);
    std::size_t total = 0;
    for (auto n : counts) total += n;
    if (total > 256) fail(ExitCode::kNotAnImage, "DHT too many symbols");
    auto symbols = c.view(total);
    auto table = HuffmanTable::build(counts, symbols);
    (klass == 0 ? jf.dc_tables : jf.ac_tables)[id] = std::move(table);
  }
  if (c.pos() != end) fail(ExitCode::kNotAnImage, "DHT length mismatch");
}

void parse_sof(Cursor& c, std::size_t seg_len, JpegFile& jf) {
  std::size_t end = c.pos() + seg_len;
  jf.frame.precision = c.u8();
  jf.frame.height = c.u16be();
  jf.frame.width = c.u16be();
  int ncomp = c.u8();
  if (jf.frame.precision != 8) {
    fail(ExitCode::kUnsupportedJpeg, "precision != 8");
  }
  if (ncomp == 4) fail(ExitCode::kCmyk, "4-component frame");
  if (ncomp != 1 && ncomp != 3) {
    fail(ExitCode::kUnsupportedJpeg, "component count");
  }
  if (jf.frame.width <= 0 || jf.frame.height <= 0) {
    fail(ExitCode::kUnsupportedJpeg, "empty frame");
  }
  jf.frame.comps.clear();
  for (int i = 0; i < ncomp; ++i) {
    ComponentInfo ci;
    ci.id = c.u8();
    std::uint8_t hv = c.u8();
    ci.h_samp = hv >> 4;
    ci.v_samp = hv & 15;
    ci.quant_idx = c.u8();
    if (ci.quant_idx > 3) fail(ExitCode::kNotAnImage, "quant index");
    if (ci.h_samp < 1 || ci.h_samp > 2 || ci.v_samp < 1 || ci.v_samp > 2) {
      fail(ExitCode::kChromaSubsampleBig, "sampling factor out of range");
    }
    jf.frame.comps.push_back(ci);
  }
  // Chroma sampled denser than luma does not fit the slice layout the
  // production decoder allocates (§6.2 "Chroma subsample big").
  for (int i = 1; i < ncomp; ++i) {
    if (jf.frame.comps[i].h_samp > jf.frame.comps[0].h_samp ||
        jf.frame.comps[i].v_samp > jf.frame.comps[0].v_samp) {
      fail(ExitCode::kChromaSubsampleBig, "chroma denser than luma");
    }
  }
  if (c.pos() != end) fail(ExitCode::kNotAnImage, "SOF length mismatch");
}

void parse_sos(Cursor& c, std::size_t seg_len, JpegFile& jf) {
  std::size_t end = c.pos() + seg_len;
  int ns = c.u8();
  if (ns != jf.frame.ncomp()) {
    // Multi-scan sequential files interleave differently; not admitted.
    fail(ExitCode::kUnsupportedJpeg, "scan component count");
  }
  for (int i = 0; i < ns; ++i) {
    int cs = c.u8();
    std::uint8_t tables = c.u8();
    bool found = false;
    for (auto& comp : jf.frame.comps) {
      if (comp.id == cs) {
        comp.dc_tbl = tables >> 4;
        comp.ac_tbl = tables & 15;
        if (comp.dc_tbl > 3 || comp.ac_tbl > 3) {
          fail(ExitCode::kNotAnImage, "SOS table selector");
        }
        found = true;
        break;
      }
    }
    if (!found) fail(ExitCode::kNotAnImage, "SOS references unknown comp");
  }
  std::uint8_t ss = c.u8();
  std::uint8_t se = c.u8();
  std::uint8_t ah_al = c.u8();
  if (ss != 0 || se != 63 || ah_al != 0) {
    fail(ExitCode::kUnsupportedJpeg, "non-baseline spectral selection");
  }
  if (c.pos() != end) fail(ExitCode::kNotAnImage, "SOS length mismatch");
}

void finalize_geometry(JpegFile& jf) {
  auto& fr = jf.frame;
  fr.hmax = 1;
  fr.vmax = 1;
  for (const auto& comp : fr.comps) {
    fr.hmax = std::max(fr.hmax, comp.h_samp);
    fr.vmax = std::max(fr.vmax, comp.v_samp);
  }
  if (fr.ncomp() == 1) {
    // Single-component scans are non-interleaved: MCU = one block,
    // sampling factors do not apply (T.81 A.2.2).
    auto& comp = fr.comps[0];
    comp.h_samp = 1;
    comp.v_samp = 1;
    fr.hmax = fr.vmax = 1;
    comp.width_blocks = (fr.width + 7) / 8;
    comp.height_blocks = (fr.height + 7) / 8;
    fr.mcus_x = comp.width_blocks;
    fr.mcus_y = comp.height_blocks;
  } else {
    fr.mcus_x = (fr.width + fr.hmax * 8 - 1) / (fr.hmax * 8);
    fr.mcus_y = (fr.height + fr.vmax * 8 - 1) / (fr.vmax * 8);
    for (auto& comp : fr.comps) {
      comp.width_blocks = fr.mcus_x * comp.h_samp;
      comp.height_blocks = fr.mcus_y * comp.v_samp;
    }
  }
  // Validate table references now so the scan decoder can index blindly.
  for (const auto& comp : fr.comps) {
    if (!jf.qtables[comp.quant_idx].defined) {
      fail(ExitCode::kNotAnImage, "missing quant table");
    }
    if (!jf.dc_tables[comp.dc_tbl].defined() ||
        !jf.ac_tables[comp.ac_tbl].defined()) {
      fail(ExitCode::kNotAnImage, "missing huffman table");
    }
  }
}

// Finds the end of the entropy-coded scan: the offset of the EOI marker or,
// for truncated/corrupt files, the end of input.
void locate_scan_end(JpegFile& jf) {
  const auto& f = jf.file;
  std::size_t i = jf.scan_begin;
  while (i + 1 < f.size()) {
    if (f[i] != 0xFF) {
      ++i;
      continue;
    }
    std::uint8_t m = f[i + 1];
    if (m == 0x00 || (m >= 0xD0 && m <= 0xD7)) {
      i += 2;  // stuffed byte or RST marker: still inside the scan
      continue;
    }
    if (m == kEOI) {
      jf.scan_end = i;
      jf.has_eoi = true;
      jf.trailing_begin = i + 2;
      return;
    }
    if (m == 0xFF) {
      ++i;  // fill byte
      continue;
    }
    // Any other marker inside a single-scan baseline file (a second SOS,
    // DNL, ...) is a multi-scan or malformed file.
    fail(ExitCode::kUnsupportedJpeg, "unexpected marker in scan");
  }
  // No EOI: truncated or zero-padded file (§A.3). The scan is everything
  // that remains; round-trip checks decide admissibility.
  jf.scan_end = f.size();
  jf.has_eoi = false;
  jf.trailing_begin = f.size();
}

}  // namespace

JpegFile parse_jpeg(std::span<const std::uint8_t> bytes) {
  return JpegHeaderProbe().finish(
      std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
      /*header_only=*/false);
}

JpegFile parse_jpeg_header(std::span<const std::uint8_t> header_bytes) {
  return JpegHeaderProbe().finish(
      std::vector<std::uint8_t>(header_bytes.begin(), header_bytes.end()),
      /*header_only=*/true);
}

// ---- the header parser ------------------------------------------------------

HeaderProbeStatus JpegHeaderProbe::update(std::span<const std::uint8_t> bytes) {
  return walk(bytes, /*at_end=*/false);
}

JpegFile JpegHeaderProbe::finish(std::vector<std::uint8_t> file,
                                 bool header_only) {
  if (walk(file, /*at_end=*/true) == HeaderProbeStatus::kRejected) {
    throw ParseError(code_, msg_);
  }
  // At end of input the walk either completes or rejects.
  JpegFile jf = std::move(jf_);
  jf.file = std::move(file);
  if (header_only) {
    jf.scan_end = jf.scan_begin;
    jf.trailing_begin = jf.file.size();
    return jf;
  }
  locate_scan_end(jf);
  if (jf.scan_end == jf.scan_begin) {
    // "JPEG files that consist entirely of a header" (§6.2).
    fail(ExitCode::kUnsupportedJpeg, "empty scan");
  }
  return jf;
}

HeaderProbeStatus JpegHeaderProbe::walk(std::span<const std::uint8_t> bytes,
                                        bool at_end) {
  if (status_ != HeaderProbeStatus::kNeedMore) return status_;
  try {
    walk_markers(bytes, at_end);
  } catch (const ParseError& e) {
    status_ = HeaderProbeStatus::kRejected;
    code_ = e.code();
    msg_ = e.what();
  }
  return status_;
}

// Marker walk, resumed at pos_ (always a marker boundary). Returns when the
// bytes run out before the header does; throws ParseError on a rejection.
void JpegHeaderProbe::walk_markers(std::span<const std::uint8_t> bytes,
                                   bool at_end) {
  // True when bytes [0, end) have arrived. At end of input nothing more
  // will, so a missing byte is the truncation rejection.
  const auto have = [&](std::size_t end) {
    if (end <= bytes.size()) return true;
    if (at_end) fail(ExitCode::kNotAnImage, "truncated header");
    return false;
  };
  if (pos_ == 0) {
    if ((!bytes.empty() && bytes[0] != 0xFF) ||
        (bytes.size() >= 2 && bytes[1] != kSOI)) {
      fail(ExitCode::kNotAnImage, "no SOI");
    }
    if (!have(2)) return;
    pos_ = 2;
  }
  for (;;) {
    std::size_t p = pos_;
    if (!have(p + 1)) return;
    if (bytes[p] != 0xFF) fail(ExitCode::kNotAnImage, "marker expected");
    do {
      ++p;
    } while (p < bytes.size() && bytes[p] == 0xFF);  // fill bytes
    if (!have(p + 1)) return;
    const std::uint8_t marker = bytes[p++];

    if (marker == kSOS && !have_sof_) {
      fail(ExitCode::kNotAnImage, "SOS before SOF");
    }
    if (marker == kEOI) fail(ExitCode::kUnsupportedJpeg, "header-only file");
    if (marker == kSOI || (marker >= 0xD0 && marker <= 0xD7)) {
      fail(ExitCode::kNotAnImage, "stray restart/SOI in header");
    }
    if (!have(p + 2)) return;
    const std::size_t len = (static_cast<std::size_t>(bytes[p]) << 8) |
                            bytes[p + 1];
    if (len < 2) fail(ExitCode::kNotAnImage, "segment length");

    // Marker-level rejections need no payload: a progressive or
    // hierarchical upload dies the moment its SOF marker arrives.
    switch (marker) {
      case 0xC0:  // SOF0 baseline
      case 0xC1:  // SOF1 extended sequential (Huffman, 8-bit): admitted
        if (have_sof_) fail(ExitCode::kNotAnImage, "duplicate SOF");
        break;
      case 0xC2:
        fail(ExitCode::kProgressive, "progressive JPEG");
      case 0xC3:
      case 0xC5:
      case 0xC6:
      case 0xC7:
      case 0xC9:
      case 0xCA:
      case 0xCB:
      case 0xCD:
      case 0xCE:
      case 0xCF:
        fail(ExitCode::kUnsupportedJpeg, "unsupported SOF type");
      case 0xDC:  // DNL
      case 0xDE:  // DHP (hierarchical)
      case 0xDF:  // EXP
        fail(ExitCode::kUnsupportedJpeg, "hierarchical/DNL");
      default:
        break;
    }

    // A segment is examined once all of it has arrived. At end of input it
    // is examined as far as it goes, so a defect among the bytes present
    // outranks the truncation.
    if (p + len > bytes.size() && !at_end) return;
    Cursor c(bytes);
    c.skip(p + 2);
    const std::size_t payload = len - 2;
    switch (marker) {
      case kSOS:
        parse_sos(c, payload, jf_);
        finalize_geometry(jf_);
        jf_.scan_begin = c.pos();
        status_ = HeaderProbeStatus::kComplete;
        return;
      case 0xC0:
      case 0xC1:
        parse_sof(c, payload, jf_);
        have_sof_ = true;
        break;
      case kDHT:
        parse_dht(c, payload, jf_);
        break;
      case kDQT:
        parse_dqt(c, payload, jf_);
        break;
      case kDRI:
        if (payload != 2) fail(ExitCode::kNotAnImage, "DRI length");
        jf_.restart_interval = c.u16be();
        break;
      default:
        // APPn, COM, and anything unrecognized-but-framed: keep raw bytes
        // (they are part of the header blob Lepton zlib-compresses).
        c.skip(payload);
        break;
    }
    pos_ = c.pos();
  }
}

}  // namespace lepton::jpegfmt

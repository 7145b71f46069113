#include "replay.h"

#include "common.h"
#include "jpeg/jpeg_types.h"
#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "jpeg/scan_encoder.h"
#include "lepton/format.h"
#include "lepton/lepton.h"

namespace perfbench {

ReplaySample replay_one(std::span<const std::uint8_t> jpeg) {
  ReplaySample r;
  try {
    std::int64_t t0 = now_ns();
    lepton::jpegfmt::JpegFile jf = lepton::jpegfmt::parse_jpeg(jpeg);
    std::int64_t t1 = now_ns();
    lepton::jpegfmt::ScanDecodeResult dec = lepton::jpegfmt::decode_scan(jf);
    std::int64_t t2 = now_ns();
    std::vector<std::uint8_t> scan = lepton::jpegfmt::reconstruct_scan(jf, dec);
    std::int64_t t3 = now_ns();
    r.parse_ms = ms_between(t0, t1);
    r.huffman_decode_ms = ms_between(t1, t2);
    r.huffman_encode_ms = ms_between(t2, t3);
  } catch (const lepton::jpegfmt::ParseError& e) {
    r.refused_code = static_cast<unsigned>(e.code());
    return r;
  }

  std::int64_t t0 = now_ns();
  lepton::Result enc = lepton::encode_jpeg(jpeg);
  std::int64_t t1 = now_ns();
  r.encode_ms = ms_between(t0, t1);
  if (!enc.ok()) {
    r.refused_code = static_cast<unsigned>(enc.code);
    return r;
  }
  r.segments = static_cast<int>(
      lepton::core::parse_container(enc.data).header.segments.size());
  t0 = now_ns();
  lepton::Result dec = lepton::decode_lepton(enc.data);
  t1 = now_ns();
  r.decode_ms = ms_between(t0, t1);
  r.roundtrip_ok = dec.ok() && dec.data.size() == jpeg.size() &&
                   std::equal(dec.data.begin(), dec.data.end(), jpeg.begin());
  return r;
}

}  // namespace perfbench

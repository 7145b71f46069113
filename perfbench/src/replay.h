// In-process replay of operation bytes through the public codec calls, one
// file at a time, to split codec time into its jpeg and model parts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

struct ReplaySample {
  double parse_ms = 0;           // jpegfmt::parse_jpeg
  double huffman_decode_ms = 0;  // jpegfmt::decode_scan (encoder's serial stage)
  double huffman_encode_ms = 0;  // jpegfmt::reconstruct_scan
  double encode_ms = 0;          // lepton::encode_jpeg
  double decode_ms = 0;          // lepton::decode_lepton
  int segments = 0;
  unsigned refused_code = 0;     // 0 = encoded; else the §6.2 exit code
  bool roundtrip_ok = false;
};

ReplaySample replay_one(std::span<const std::uint8_t> jpeg);

}  // namespace perfbench

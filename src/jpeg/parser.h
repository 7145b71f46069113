// Baseline-JPEG container parser. Walks the marker structure, collects
// quantization/Huffman tables and frame geometry, locates the entropy-coded
// scan, and classifies everything the production system rejects
// (progressive, CMYK, exotic sampling, header-only files, non-images) into
// the §6.2 exit-code taxonomy via ParseError.
//
// The parser never trusts input: every length, index and table reference is
// validated (the uncmpjpg lessons of §6.7).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "jpeg/huffman_table.h"
#include "jpeg/jpeg_types.h"

namespace lepton::jpegfmt {

struct JpegFile {
  std::vector<std::uint8_t> file;  // complete original bytes

  std::size_t scan_begin = 0;  // offset of first entropy-coded byte
  std::size_t scan_end = 0;    // offset one past the last entropy-coded byte
  bool has_eoi = false;        // EOI marker present after the scan
  std::size_t trailing_begin = 0;  // offset of bytes after EOI (== size if none)

  FrameInfo frame;
  std::array<QuantTable, 4> qtables;
  std::array<HuffmanTable, 4> dc_tables;
  std::array<HuffmanTable, 4> ac_tables;
  int restart_interval = 0;  // DRI, in MCUs; 0 = no restarts

  std::span<const std::uint8_t> header_bytes() const {
    return {file.data(), scan_begin};
  }
  std::span<const std::uint8_t> scan_bytes() const {
    return {file.data() + scan_begin, scan_end - scan_begin};
  }
  std::span<const std::uint8_t> trailing_bytes() const {
    return {file.data() + trailing_begin, file.size() - trailing_begin};
  }
};

// Parses and validates a baseline JPEG. Throws ParseError with the §6.2
// classification on anything the system does not admit.
JpegFile parse_jpeg(std::span<const std::uint8_t> bytes);

// Parses header bytes alone (SOI .. end of SOS header, no scan data). Used
// by chunk decoders: every Lepton chunk embeds the JPEG header so it can be
// decoded without access to other chunks (§3.4).
JpegFile parse_jpeg_header(std::span<const std::uint8_t> header_bytes);

// ---- the header parser ------------------------------------------------------

enum class HeaderProbeStatus : std::uint8_t {
  kNeedMore,   // prefix is consistent with an admissible JPEG, keep feeding
  kComplete,   // header walked through SOS
  kRejected,   // classified rejection — the file can never be admitted
};

// The one JPEG header parser: a resumable marker walk. A streaming caller
// (lepton::EncodeSession) calls update() with the full file prefix
// accumulated so far, as often as new bytes arrive. The walk resumes at the
// marker boundary where it last stopped — completed markers are never
// re-walked — and a marker segment is examined only once all of its bytes
// are present, so partial headers simply report kNeedMore. That lets a
// server abort an upload of a progressive/CMYK/non-image file as soon as
// the offending marker arrives instead of buffering the whole file first.
//
// finish() ends the input and returns the parsed file; parse_jpeg and
// parse_jpeg_header are nothing more than a probe finished on a whole
// buffer.
class JpegHeaderProbe {
 public:
  HeaderProbeStatus update(std::span<const std::uint8_t> bytes);

  // Ends the input. `file` is the complete input: every byte update() saw,
  // plus any that followed. Walks the rest of the header (a header the
  // input ended inside is kNotAnImage), then locates the scan — unless
  // `header_only`, where the input stops at the end of the SOS header.
  // Throws ParseError with the rejection; call at most once.
  JpegFile finish(std::vector<std::uint8_t> file, bool header_only);

  util::ExitCode reject_code() const { return code_; }
  const std::string& reject_reason() const { return msg_; }

 private:
  HeaderProbeStatus walk(std::span<const std::uint8_t> bytes, bool at_end);
  void walk_markers(std::span<const std::uint8_t> bytes, bool at_end);

  std::size_t pos_ = 0;  // next unexamined offset (a marker boundary)
  bool have_sof_ = false;
  HeaderProbeStatus status_ = HeaderProbeStatus::kNeedMore;
  util::ExitCode code_ = util::ExitCode::kSuccess;
  std::string msg_;
  JpegFile jf_;  // tables, frame, restart interval and scan_begin so far
};

}  // namespace lepton::jpegfmt

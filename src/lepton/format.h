// The Lepton container format (§A.1).
//
// Layout (all integers little-endian):
//   magic 0xCF 0x84 | version u8 | flags u8 | n_segments u32 |
//   git revision (12 bytes) | output size u32 |
//   zlib blob (u32 len + deflate data)     — header payload, see below |
//   interleaved arithmetic sections        — [seg u8][len u32][bytes]...
//
// There is one version, kFormatVersion; the parser rejects every other
// version byte as kUnsupportedJpeg within the container's first three bytes
// (§6.7). The zlib blob carries the original JPEG header bytes (every chunk
// embeds them so any chunk decodes in isolation, §3.4), the verbatim
// prefix/suffix byte ranges, and one record per thread segment: its MCU-row
// range, its Huffman handover word (§3.4), the byte count it must produce,
// its arithmetic payload length, and any verbatim prepend data (§A.1
// "arbitrary data to prepend to the output"). Each segment's payload is one
// bool-coder stream over its rows.
//
// Arithmetic data is interleaved across segments in escalating sections of
// 256 / 4096 / 65536 bytes (§A.1) so a streaming decoder can start all
// threads before the container fully arrives. A section header names its
// segment in one byte, which is what bounds the segment count
// (kMaxSegments).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "jpeg/jpeg_types.h"
#include "model/model.h"

namespace lepton::core {

inline constexpr std::uint8_t kMagic0 = 0xCF;
inline constexpr std::uint8_t kMagic1 = 0x84;
// Version 2: the hot-path overhaul changed the entropy layout (Exp-Golomb
// low residual bits are raw range-coder literals, and edge-prediction
// bucket rounding changed), so version-1 containers must be rejected
// loudly (§6.7's "incompatible old version" rule), not mis-decoded.
inline constexpr std::uint8_t kFormatVersion = 2;
// Hard ceiling on thread segments per container, shared by the encode
// planner (clamps the requested count) and the container parser (rejects
// larger headers with kNotAnImage). It is the count the format can address:
// a section header names its segment in one byte. The decode
// OrderedEmitter tracks completion with one flag per segment, so every
// count up to this bound is safe.
inline constexpr std::uint32_t kMaxSegments = 256;

struct SegmentHeader {
  std::uint32_t start_row = 0;
  std::uint32_t end_row = 0;               // exclusive
  jpegfmt::HuffmanHandover handover;       // writer state at start_row
  std::uint64_t out_len = 0;               // bytes this segment contributes
  std::vector<std::uint8_t> prepend;       // verbatim bytes before its output
};

struct ContainerHeader {
  bool is_chunk = false;          // substring of a larger file
  std::uint64_t file_total_size = 0;
  std::uint64_t chunk_off = 0;    // byte range of the original file this
  std::uint64_t chunk_len = 0;    //   container decodes to
  std::uint64_t scan_begin_abs = 0;  // offset of scan data in the original
  std::uint8_t pad_bit = 1;
  std::uint32_t rst_count = 0;
  model::ModelOptions model;
  std::vector<std::uint8_t> jpeg_header;  // bytes [0, scan_begin) of original
  // Verbatim bytes this container must emit before its first segment: a
  // range *into jpeg_header* (header bytes are stored once, §A.1 "skip
  // serializing header" spirit).
  std::uint64_t prefix_off = 0;
  std::uint64_t prefix_len = 0;
  std::vector<std::uint8_t> suffix;       // verbatim chunk bytes after rows
  std::vector<SegmentHeader> segments;
};

// Serializes header + per-segment arithmetic streams into a container. The
// span form is the hot path: segment encoders keep their output in reusable
// CodecContext scratch buffers and hand views here, no per-call copies.
std::vector<std::uint8_t> serialize_container(
    const ContainerHeader& h,
    std::span<const std::span<const std::uint8_t>> arith);
std::vector<std::uint8_t> serialize_container(
    const ContainerHeader& h,
    const std::vector<std::vector<std::uint8_t>>& arith);

struct ParsedContainer {
  ContainerHeader header;
  std::vector<std::vector<std::uint8_t>> arith;  // per segment
};

// Incremental container parser: accepts the container in arbitrary-sized
// slices, as the bytes arrive from a socket (§3.4 — decode starts before a
// 4-MiB chunk is fully fetched). The header becomes available as soon as
// its bytes have arrived; arithmetic sections are de-interleaved into
// per-segment streams on the fly, so a caller can begin decoding a segment
// the moment its stream is complete.
//
// This is the only container-parsing code path: the whole-buffer
// parse_container() below is a feed-everything wrapper.
class ContainerParser {
 public:
  // Consumes the next input slice. Returns kSuccess while the stream is
  // still plausible (possibly incomplete); any classified failure is sticky
  // and every later call returns it again. Structural corruption is
  // kNotAnImage / kUnsupportedJpeg exactly as the whole-buffer parser
  // classifies it; feeding past the end of a complete container is
  // kNotAnImage ("trailing garbage").
  util::ExitCode feed(std::span<const std::uint8_t> bytes);

  util::ExitCode error() const { return error_; }
  const char* error_message() const { return error_msg_; }

  // True once the zlib header payload has arrived and parsed; header() and
  // the per-segment stream accessors are valid from then on.
  bool header_ready() const { return header_ready_; }
  const ContainerHeader& header() const { return header_; }

  // True once every segment's declared arithmetic bytes have arrived.
  bool complete() const { return state_ == State::kComplete; }

  // Segments whose streams are complete, in the order they completed: a
  // streaming decoder can start each one as soon as it appears here, and
  // its stream never changes again.
  const std::vector<std::size_t>& completed_segments() const {
    return completed_;
  }
  const std::vector<std::uint8_t>& segment_arith(std::size_t seg) const {
    return arith_[seg];
  }
  const std::vector<std::vector<std::uint8_t>>& arith() const {
    return arith_;
  }

  // Moves the parsed result out (call when complete()).
  ParsedContainer take() {
    return {std::move(header_), std::move(arith_)};
  }

 private:
  enum class State : std::uint8_t {
    kOuterHeader,   // magic .. output size + header blob length
    kHeaderBlob,    // accumulating the zlib header payload
    kSectionHead,   // [seg u8][len u32] of the next interleaved section
    kSectionBody,   // bytes of the current section
    kComplete,
    kError,
  };

  util::ExitCode fail(util::ExitCode code, const char* msg);
  void on_header_blob_complete();
  void maybe_complete();

  State state_ = State::kOuterHeader;
  util::ExitCode error_ = util::ExitCode::kSuccess;
  const char* error_msg_ = "";

  std::vector<std::uint8_t> pending_;  // partial fixed-size unit
  std::vector<std::uint8_t> blob_;     // zlib header payload
  std::size_t blob_len_ = 0;
  std::uint32_t n_segments_outer_ = 0;

  bool header_ready_ = false;
  ContainerHeader header_;
  std::vector<std::uint32_t> arith_len_;
  std::vector<std::vector<std::uint8_t>> arith_;
  std::vector<std::size_t> completed_;
  std::size_t cur_seg_ = 0;
  std::size_t body_remaining_ = 0;
};

// Parses and validates a complete container. Throws jpegfmt::ParseError
// (classified kNotAnImage / kImpossible for structurally hostile input,
// kShortRead for truncation) — a feed-everything wrapper over
// ContainerParser.
ParsedContainer parse_container(std::span<const std::uint8_t> bytes);

// True if the bytes begin with the Lepton magic.
bool looks_like_lepton(std::span<const std::uint8_t> bytes);

}  // namespace lepton::core

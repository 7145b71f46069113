// 4-MiB chunk codec (§3, §3.4).
//
// The Dropbox back-end stores files as independent chunks of at most 4 MiB
// spread across many servers, and client software retrieves each chunk
// independently — so Lepton must decompress any substring of a JPEG file
// without access to the other substrings. Each chunk here is a standalone
// Lepton container embedding the JPEG header, the Huffman handover word for
// its position, and verbatim prepend bytes covering the partial MCU row at
// its start.
//
// Compression sees the whole file (the production system assembles the file
// before compressing later chunks, §3); only *decompression* is
// chunk-independent.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lepton/codec.h"

namespace lepton {

inline constexpr std::size_t kDefaultChunkSize = 4u << 20;  // 4 MiB (§3)

struct ChunkSetResult {
  util::ExitCode code = util::ExitCode::kSuccess;
  std::string message;
  std::vector<std::vector<std::uint8_t>> chunks;  // one container per chunk
  bool ok() const { return code == util::ExitCode::kSuccess; }
};

struct ChunkInfo {
  std::uint64_t offset = 0;      // byte range of the original file
  std::uint64_t length = 0;
  std::uint64_t total_size = 0;  // size of the whole original file
};

class ChunkCodec {
 public:
  // `ctx` (optional) pins the codec to a dedicated CodecContext; by default
  // chunks run on the process-wide context, sharing its pre-spawned pool
  // and scratch with the whole-file paths.
  explicit ChunkCodec(EncodeOptions opts = {},
                      std::size_t chunk_size = kDefaultChunkSize,
                      CodecContext* ctx = nullptr)
      : opts_(opts), chunk_size_(chunk_size), ctx_(ctx) {}

  // Splits the JPEG into fixed-size byte ranges and compresses each into an
  // independent container. Classified failure leaves `chunks` empty.
  // A wrapper over EncodeSession::finish_chunks (session.h).
  ChunkSetResult encode_chunks(std::span<const std::uint8_t> jpeg) const;

  // Decodes one chunk in isolation: returns exactly the original file bytes
  // [info.offset, info.offset + info.length). A wrapper over DecodeSession.
  // `stats` (optional) reports payload-consumption facts — a decode that
  // overran or under-consumed its arithmetic payload is suspect even when
  // the byte count came out right (§5.7), and callers like the store's
  // get() path act on it.
  Result decode_chunk(std::span<const std::uint8_t> chunk,
                      const DecodeOptions& opts = {},
                      DecodeStats* stats = nullptr) const;

  // Reads a chunk's placement without decoding it.
  static util::ExitCode chunk_info(std::span<const std::uint8_t> chunk,
                                   ChunkInfo* out);

 private:
  CodecContext& context() const;

  EncodeOptions opts_;
  std::size_t chunk_size_;
  CodecContext* ctx_;
};

}  // namespace lepton

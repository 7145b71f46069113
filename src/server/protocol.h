// Wire protocol of the Lepton compression server (§5, §6.6).
//
// The paper's deployment is not a library but a fleet of daemons: a
// blockserver hands a compression server the bytes of a chunk over a local
// socket, the server streams converted bytes back, and a trailer carries
// the §6.2 exit code so the caller can admit, retry on a second server, or
// fall back to Deflate. This header is the single definition of that wire
// format — service.cpp, client.cpp, FleetClient and the hostile-client
// tests all compile against it, and docs/PROTOCOL.md documents it byte for
// byte (keep them in lockstep).
//
// Every message is a *frame*: an 8-byte little-endian header followed by
// `length` payload bytes. A request is an open frame (ENCODE/DECODE with a
// deadline, or PING/SHUTOFF), a streamed body (DATA* then END; PING and
// SHUTOFF have no body), and a streamed response (DATA* then one TRAILER
// with the exit code and byte counts). Declared lengths are validated
// against hard caps *before* any buffer is sized, so a hostile 4-GiB
// declaration costs the server an 8-byte read and an error trailer, never
// an allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace lepton::server {

// Protocol version carried in every request-open frame. Bump on any change
// to the frame layouts below; a server answers a mismatched version with a
// kImpossible trailer (docs/PROTOCOL.md §"Versioning").
inline constexpr std::uint8_t kProtocolVersion = 1;

enum class FrameType : std::uint8_t {
  // Request-open frames (client -> server).
  kEncode = 0x01,   // body = JPEG file, response body = Lepton container
  kDecode = 0x02,   // body = Lepton container, response body = JPEG file
  kPing = 0x03,     // no body; immediate trailer (liveness + shutoff state)
  kShutoff = 0x04,  // no body; 1-byte payload operates the kill-switch
  kStats = 0x05,    // no body; response = DATA (text key/value lines) +
                    // trailer. Additive to version 1: a server that does
                    // not speak it answers kImpossible and closes, which is
                    // the protocol's defined reaction to unknown types —
                    // clients probe, they do not negotiate.
  // Stream frames (both directions).
  kData = 0x10,     // a body slice (request input or response output)
  kEnd = 0x11,      // terminates a request body (no payload)
  kTrailer = 0x12,  // terminates a response (TrailerPayload)
};

// ---- frame header ----------------------------------------------------------
//
//   offset 0  u8   type        (FrameType)
//   offset 1  u8   flags       (must be 0 in version 1)
//   offset 2  u16  reserved    (must be 0; little-endian)
//   offset 4  u32  length      (payload bytes that follow; little-endian)

struct FrameHeader {
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t length = 0;
};

inline constexpr std::size_t kFrameHeaderSize = 8;

// Hard caps, enforced before allocation (docs/PROTOCOL.md §"Limits").
// kMaxDataFrame bounds one DATA slice — bodies of any size stream as
// multiple frames; a server additionally bounds the *total* body by its
// configured request cap. Control frames are tiny by construction.
inline constexpr std::uint32_t kMaxDataFrame = 8u << 20;  // 8 MiB
inline constexpr std::uint32_t kMaxControlFrame = 64;

inline void put_u16le(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
inline void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
inline void put_u64le(std::uint8_t* p, std::uint64_t v) {
  put_u32le(p, static_cast<std::uint32_t>(v));
  put_u32le(p + 4, static_cast<std::uint32_t>(v >> 32));
}
inline std::uint16_t get_u16le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}
inline std::uint64_t get_u64le(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32le(p)) |
         (static_cast<std::uint64_t>(get_u32le(p + 4)) << 32);
}

inline void write_frame_header(std::uint8_t out[kFrameHeaderSize],
                               const FrameHeader& h) {
  out[0] = static_cast<std::uint8_t>(h.type);
  out[1] = h.flags;
  put_u16le(out + 2, 0);
  put_u32le(out + 4, h.length);
}

// Parses an 8-byte header. Returns false on a frame no version-1 peer may
// send: unknown type, nonzero flags/reserved, or a declared length over the
// per-type cap — the pre-allocation rejection point.
inline bool parse_frame_header(const std::uint8_t in[kFrameHeaderSize],
                               FrameHeader* h) {
  h->type = static_cast<FrameType>(in[0]);
  h->flags = in[1];
  h->length = get_u32le(in + 4);
  if (h->flags != 0 || get_u16le(in + 2) != 0) return false;
  switch (h->type) {
    case FrameType::kEncode:
    case FrameType::kDecode:
    case FrameType::kPing:
    case FrameType::kShutoff:
    case FrameType::kStats:
    case FrameType::kEnd:
    case FrameType::kTrailer:
      return h->length <= kMaxControlFrame;
    case FrameType::kData:
      return h->length <= kMaxDataFrame;
  }
  return false;
}

// ---- request-open payload (ENCODE / DECODE) --------------------------------
//
//   offset 0  u8   version     (kProtocolVersion)
//   offset 1  u8[3] reserved   (0)
//   offset 4  u32  deadline_ms (0 = no deadline; server arms RunControl)

struct OpenPayload {
  std::uint8_t version = kProtocolVersion;
  std::uint32_t deadline_ms = 0;
};

inline constexpr std::size_t kOpenPayloadSize = 8;

inline void write_open_payload(std::uint8_t out[kOpenPayloadSize],
                               const OpenPayload& p) {
  std::memset(out, 0, kOpenPayloadSize);
  out[0] = p.version;
  put_u32le(out + 4, p.deadline_ms);
}

inline bool parse_open_payload(const std::uint8_t* in, std::size_t len,
                               OpenPayload* p) {
  if (len != kOpenPayloadSize) return false;
  p->version = in[0];
  p->deadline_ms = get_u32le(in + 4);
  return true;
}

// ---- shutoff payload -------------------------------------------------------
//
// One byte. The response trailer's bit0 flag reports the state *after* the
// operation; kQuery forces a fresh stat of the shutoff file, bypassing the
// store's 250 ms TTL cache (store.h), so operators see the switch flip
// immediately instead of one TTL late.

enum class ShutoffOp : std::uint8_t {
  kQuery = 0,   // forced re-check; no state change
  kEngage = 1,  // set the process-local kill-switch
  kClear = 2,   // clear the process-local kill-switch (the file, if
                // configured, still forces shutoff until removed)
};

// ---- trailer payload -------------------------------------------------------
//
//   offset 0   u8   exit_code   (util::ExitCode, §6.2)
//   offset 1   u8   flags       (bit0: shutoff engaged at trailer time)
//   offset 2   u16  reserved    (0)
//   offset 4   u64  bytes_in    (request body bytes the server consumed)
//   offset 12  u64  bytes_out   (response DATA payload bytes emitted)
//
// The response body is authoritative only when exit_code == 0 (kSuccess):
// a decode that trips its deadline may have already streamed a partial
// prefix, and the trailer is what voids it.

struct TrailerPayload {
  std::uint8_t exit_code = 0;
  bool shutoff_engaged = false;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

inline constexpr std::size_t kTrailerPayloadSize = 20;
inline constexpr std::uint8_t kTrailerFlagShutoff = 0x01;

inline void write_trailer_payload(std::uint8_t out[kTrailerPayloadSize],
                                  const TrailerPayload& t) {
  out[0] = t.exit_code;
  out[1] = t.shutoff_engaged ? kTrailerFlagShutoff : 0;
  put_u16le(out + 2, 0);
  put_u64le(out + 4, t.bytes_in);
  put_u64le(out + 12, t.bytes_out);
}

inline bool parse_trailer_payload(const std::uint8_t* in, std::size_t len,
                                  TrailerPayload* t) {
  if (len != kTrailerPayloadSize) return false;
  t->exit_code = in[0];
  t->shutoff_engaged = (in[1] & kTrailerFlagShutoff) != 0;
  t->bytes_in = get_u64le(in + 4);
  t->bytes_out = get_u64le(in + 12);
  return true;
}

}  // namespace lepton::server

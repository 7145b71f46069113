#include "lepton/format.h"

#include "util/exit_codes.h"
#include "util/serialize.h"
#include "util/zlib_util.h"

namespace lepton::core {
namespace {

using util::ExitCode;

[[noreturn]] void fail(ExitCode c, const char* msg) {
  throw jpegfmt::ParseError(c, msg);
}

void put_handover(util::Serializer& s, const jpegfmt::HuffmanHandover& h) {
  s.u64(h.pos.byte_off);
  s.u8(static_cast<std::uint8_t>(h.pos.bit_off));
  s.u8(h.partial_byte);
  for (int i = 0; i < 4; ++i) s.i16(h.dc_pred[i]);
  s.u32(h.mcus_done);
  s.u32(h.rst_seen);
}

jpegfmt::HuffmanHandover get_handover(util::Deserializer& d) {
  jpegfmt::HuffmanHandover h;
  h.pos.byte_off = d.u64();
  h.pos.bit_off = d.u8();
  h.partial_byte = d.u8();
  for (int i = 0; i < 4; ++i) h.dc_pred[i] = d.i16();
  h.mcus_done = d.u32();
  h.rst_seen = d.u32();
  if (h.pos.bit_off > 7) fail(ExitCode::kNotAnImage, "handover bit offset");
  return h;
}

// §A.1 interleave schedule: sections of 256, then 4096, then 65536 bytes.
std::size_t section_size(int round) {
  if (round == 0) return 256;
  if (round == 1) return 4096;
  return 65536;
}

}  // namespace

bool looks_like_lepton(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= 2 && bytes[0] == kMagic0 && bytes[1] == kMagic1;
}

std::vector<std::uint8_t> serialize_container(
    const ContainerHeader& h,
    const std::vector<std::vector<std::uint8_t>>& arith) {
  std::vector<std::span<const std::uint8_t>> views;
  views.reserve(arith.size());
  for (const auto& a : arith) views.emplace_back(a.data(), a.size());
  return serialize_container(h, views);
}

std::vector<std::uint8_t> serialize_container(
    const ContainerHeader& h,
    std::span<const std::span<const std::uint8_t>> arith) {
  // ---- zlib header payload ----
  util::Serializer p;
  p.u8(h.is_chunk ? 1 : 0);
  p.u64(h.file_total_size);
  p.u64(h.chunk_off);
  p.u64(h.chunk_len);
  p.u64(h.scan_begin_abs);
  p.u8(h.pad_bit);
  p.u32(h.rst_count);
  p.u8(static_cast<std::uint8_t>((h.model.lakhani_edges ? 1 : 0) |
                                 (h.model.dc_gradient ? 2 : 0) |
                                 (h.model.zigzag_77 ? 4 : 0)));
  p.blob({h.jpeg_header.data(), h.jpeg_header.size()});
  p.u64(h.prefix_off);
  p.u64(h.prefix_len);
  p.blob({h.suffix.data(), h.suffix.size()});
  p.u32(static_cast<std::uint32_t>(h.segments.size()));
  const bool v3 = h.version == kFormatVersionV3;
  for (std::size_t i = 0; i < h.segments.size(); ++i) {
    const auto& seg = h.segments[i];
    p.u32(seg.start_row);
    p.u32(seg.end_row);
    put_handover(p, seg.handover);
    p.u64(seg.out_len);
    p.blob({seg.prepend.data(), seg.prepend.size()});
    p.u32(static_cast<std::uint32_t>(arith[i].size()));
    if (v3) {
      // Lane table: the payload is the lanes' streams concatenated in
      // order; an absent table (v2) means one implicit lane.
      p.u8(static_cast<std::uint8_t>(
          seg.lane_lens.empty() ? 1 : seg.lane_lens.size()));
      if (seg.lane_lens.empty()) {
        p.u32(static_cast<std::uint32_t>(arith[i].size()));
      } else {
        for (std::uint32_t len : seg.lane_lens) p.u32(len);
      }
    }
  }
  auto zpayload = util::zlib_compress({p.data().data(), p.size()}, 6);

  // ---- outer container ----
  util::Serializer s;
  s.u8(kMagic0);
  s.u8(kMagic1);
  s.u8(v3 ? kFormatVersionV3 : kFormatVersion);
  s.u8(h.is_chunk ? 1 : 0);
  s.u32(static_cast<std::uint32_t>(h.segments.size()));
  for (int i = 0; i < 12; ++i) s.u8(0);  // truncated git revision (§A.1)
  s.u32(static_cast<std::uint32_t>(h.chunk_len));
  s.blob({zpayload.data(), zpayload.size()});

  // ---- interleaved arithmetic sections (§A.1) ----
  std::vector<std::size_t> cursor(arith.size(), 0);
  std::vector<int> round(arith.size(), 0);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t i = 0; i < arith.size(); ++i) {
      std::size_t left = arith[i].size() - cursor[i];
      if (left == 0) continue;
      std::size_t n = std::min(left, section_size(round[i]));
      ++round[i];
      s.u8(static_cast<std::uint8_t>(i));
      s.u32(static_cast<std::uint32_t>(n));
      s.bytes({arith[i].data() + cursor[i], n});
      cursor[i] += n;
      any = true;
    }
  }
  return s.take();
}

// ---- incremental parser -----------------------------------------------------

namespace {

// Outer fixed prefix: magic(2) version(1) flags(1) n_segments(4)
// revision(12) output-size(4) header-blob-length(4).
constexpr std::size_t kOuterFixedBytes = 28;
constexpr std::size_t kSectionHeadBytes = 5;  // [seg u8][len u32]

std::uint32_t le32_at(const std::vector<std::uint8_t>& b, std::size_t off) {
  return static_cast<std::uint32_t>(b[off]) |
         (static_cast<std::uint32_t>(b[off + 1]) << 8) |
         (static_cast<std::uint32_t>(b[off + 2]) << 16) |
         (static_cast<std::uint32_t>(b[off + 3]) << 24);
}

}  // namespace

util::ExitCode ContainerParser::fail(util::ExitCode code, const char* msg) {
  state_ = State::kError;
  error_ = code;
  error_msg_ = msg;
  return code;
}

void ContainerParser::on_header_blob_complete() {
  std::vector<std::uint8_t> payload;
  if (!util::zlib_decompress({blob_.data(), blob_.size()}, payload)) {
    fail(ExitCode::kNotAnImage, "corrupt header payload");
    return;
  }
  blob_.clear();
  blob_.shrink_to_fit();

  util::Deserializer q({payload.data(), payload.size()});
  auto& h = header_;
  h.version = version_outer_;
  h.is_chunk = q.u8() != 0;
  h.file_total_size = q.u64();
  h.chunk_off = q.u64();
  h.chunk_len = q.u64();
  h.scan_begin_abs = q.u64();
  h.pad_bit = q.u8() & 1;
  h.rst_count = q.u32();
  std::uint8_t mflags = q.u8();
  h.model.lakhani_edges = (mflags & 1) != 0;
  h.model.dc_gradient = (mflags & 2) != 0;
  h.model.zigzag_77 = (mflags & 4) != 0;
  h.jpeg_header = q.blob();
  h.prefix_off = q.u64();
  h.prefix_len = q.u64();
  h.suffix = q.blob();
  if (h.prefix_off + h.prefix_len > h.jpeg_header.size()) {
    fail(ExitCode::kNotAnImage, "prefix range outside header");
    return;
  }
  std::uint32_t n_segments = q.u32();
  if (!q.ok() || n_segments != n_segments_outer_ ||
      n_segments > kMaxSegments) {
    fail(ExitCode::kNotAnImage, "segment count mismatch");
    return;
  }
  arith_len_.resize(n_segments);
  const bool v3 = version_outer_ == kFormatVersionV3;
  for (std::uint32_t i = 0; i < n_segments; ++i) {
    SegmentHeader seg;
    seg.start_row = q.u32();
    seg.end_row = q.u32();
    seg.handover = get_handover(q);
    seg.out_len = q.u64();
    seg.prepend = q.blob();
    arith_len_[i] = q.u32();
    if (v3) {
      // Lane table: bounded count, and the lane streams must tile the
      // segment's declared payload exactly — a hostile table cannot point
      // lanes past the bytes that will actually arrive.
      std::uint32_t lanes = q.u8();
      if (lanes == 0 || lanes > kMaxLanes) {
        fail(ExitCode::kNotAnImage, "corrupt lane table");
        return;
      }
      std::uint64_t lane_sum = 0;
      seg.lane_lens.resize(lanes);
      for (std::uint32_t k = 0; k < lanes; ++k) {
        seg.lane_lens[k] = q.u32();
        lane_sum += seg.lane_lens[k];
      }
      if (!q.ok() || lane_sum != arith_len_[i]) {
        fail(ExitCode::kNotAnImage, "corrupt lane table");
        return;
      }
    }
    if (!q.ok() || seg.end_row < seg.start_row) {
      fail(ExitCode::kNotAnImage, "corrupt segment header");
      return;
    }
    h.segments.push_back(std::move(seg));
  }
  arith_.resize(n_segments);
  // Eager reservation is an optimization, not a promise: the declared
  // lengths are attacker-controlled (4096 segments x 4 GiB each would be
  // ~16 TiB), so cap the total reserved up front. Real containers fit the
  // budget comfortably; anything larger grows with the bytes that are
  // actually fed — which the section-overflow check bounds per segment.
  std::size_t reserve_budget = 8u << 20;
  for (std::uint32_t i = 0; i < n_segments; ++i) {
    std::size_t r = std::min<std::size_t>(arith_len_[i], reserve_budget);
    arith_[i].reserve(r);
    reserve_budget -= r;
    if (arith_len_[i] == 0) completed_.push_back(i);
  }
  header_ready_ = true;
}

void ContainerParser::maybe_complete() {
  for (std::size_t i = 0; i < arith_.size(); ++i) {
    if (arith_[i].size() != arith_len_[i]) return;
  }
  state_ = State::kComplete;
}

util::ExitCode ContainerParser::feed(std::span<const std::uint8_t> in) {
  if (state_ == State::kError) return error_;
  std::size_t i = 0;
  util::ExitCode rc = ExitCode::kSuccess;
  for (bool more = true; more && rc == ExitCode::kSuccess;) {
    switch (state_) {
      case State::kOuterHeader: {
        while (pending_.size() < kOuterFixedBytes && i < in.size()) {
          pending_.push_back(in[i++]);
        }
        // Classify as early as the bytes allow: a stream that is not a
        // Lepton container (or is the §6.7 incompatible version) is
        // rejected within its first three bytes, not at finish().
        if (!pending_.empty() && pending_[0] != kMagic0) {
          rc = fail(ExitCode::kNotAnImage, "bad magic");
        } else if (pending_.size() >= 2 && pending_[1] != kMagic1) {
          rc = fail(ExitCode::kNotAnImage, "bad magic");
        } else if (pending_.size() >= 3 && pending_[2] != kFormatVersion &&
                   pending_[2] != kFormatVersionV3) {
          // §6.7: any version this build does not speak — including the
          // pre-overhaul version 1 — fails loudly, never decodes garbage.
          rc = fail(ExitCode::kUnsupportedJpeg,
                    "unsupported container version");
        } else if (pending_.size() < kOuterFixedBytes) {
          more = false;  // need more input
        } else {
          version_outer_ = pending_[2];
          n_segments_outer_ = le32_at(pending_, 4);
          blob_len_ = le32_at(pending_, 24);
          if (n_segments_outer_ > kMaxSegments) {
            rc = fail(ExitCode::kNotAnImage, "segment count mismatch");
          } else {
            pending_.clear();
            blob_.reserve(blob_len_ < (1u << 20) ? blob_len_ : (1u << 20));
            state_ = State::kHeaderBlob;
          }
        }
        break;
      }
      case State::kHeaderBlob: {
        std::size_t take = std::min(blob_len_ - blob_.size(), in.size() - i);
        blob_.insert(blob_.end(), in.begin() + static_cast<std::ptrdiff_t>(i),
                     in.begin() + static_cast<std::ptrdiff_t>(i + take));
        i += take;
        if (blob_.size() < blob_len_) {
          more = false;
        } else {
          on_header_blob_complete();
          if (state_ == State::kError) {
            rc = error_;
          } else {
            state_ = State::kSectionHead;
            maybe_complete();  // zero-payload containers have no sections
          }
        }
        break;
      }
      case State::kSectionHead: {
        while (pending_.size() < kSectionHeadBytes && i < in.size()) {
          pending_.push_back(in[i++]);
        }
        if (pending_.size() < kSectionHeadBytes) {
          more = false;
        } else {
          std::size_t seg = pending_[0];
          std::uint32_t n = le32_at(pending_, 1);
          if (seg >= arith_.size()) {
            rc = fail(ExitCode::kNotAnImage, "corrupt interleave section");
          } else if (arith_[seg].size() + n > arith_len_[seg]) {
            rc = fail(ExitCode::kNotAnImage, "section overflow");
          } else {
            pending_.clear();
            cur_seg_ = seg;
            body_remaining_ = n;
            state_ = State::kSectionBody;
          }
        }
        break;
      }
      case State::kSectionBody: {
        std::size_t take = std::min(body_remaining_, in.size() - i);
        arith_[cur_seg_].insert(
            arith_[cur_seg_].end(), in.begin() + static_cast<std::ptrdiff_t>(i),
            in.begin() + static_cast<std::ptrdiff_t>(i + take));
        i += take;
        body_remaining_ -= take;
        if (take > 0 && arith_[cur_seg_].size() == arith_len_[cur_seg_]) {
          completed_.push_back(cur_seg_);
        }
        if (body_remaining_ > 0) {
          more = false;
        } else {
          state_ = State::kSectionHead;
          maybe_complete();
        }
        break;
      }
      case State::kComplete: {
        if (i < in.size()) {
          rc = fail(ExitCode::kNotAnImage, "trailing garbage after container");
        } else {
          more = false;
        }
        break;
      }
      case State::kError:
        rc = error_;
        break;
    }
  }
  consumed_ += i;
  return rc;
}

ParsedContainer parse_container(std::span<const std::uint8_t> bytes) {
  ContainerParser p;
  util::ExitCode code = p.feed(bytes);
  if (code != ExitCode::kSuccess) {
    throw jpegfmt::ParseError(code, p.error_message());
  }
  if (!p.complete()) {
    // The buffer ended before the bytes its own header promised: the
    // whole-buffer equivalent of a connection cut mid-stream.
    throw jpegfmt::ParseError(ExitCode::kShortRead, "container truncated");
  }
  return p.take();
}

}  // namespace lepton::core

// Bit-level I/O, MSB-first, as used by the JPEG entropy-coded segment.
//
// Both classes support being started from a "handover" state — a bit offset
// within a partially filled byte — which is the low-level mechanism behind
// the paper's "Huffman handover words" (§3.4): a decoder thread can resume
// writing a Huffman stream mid-byte, and the produced bytes concatenate
// exactly with the previous segment's output.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace lepton::util {

// Writes bits MSB-first into an internal byte buffer.
class BitWriter {
 public:
  BitWriter() = default;

  // Resume mid-byte: `partial` holds `bit_offset` already-decided bits in its
  // most significant positions; they become the high bits of the first byte
  // this writer completes.
  BitWriter(std::uint8_t partial, int bit_offset)
      : acc_(partial >> (8 - bit_offset)), nbits_(bit_offset) {
    if (bit_offset == 0) acc_ = 0;
  }

  // Append the low `count` bits of `bits` (0 <= count <= 32), MSB-first.
  // The bits land in a 64-bit accumulator and flush a byte at a time — one
  // shift+or per call instead of a per-bit loop.
  void put_bits(std::uint32_t bits, int count) {
    acc_ = (acc_ << count) | (bits & ((1ull << count) - 1ull));
    nbits_ += count;
    while (nbits_ >= 8) {
      nbits_ -= 8;
      out_.push_back(static_cast<std::uint8_t>(acc_ >> nbits_));
    }
    acc_ &= (1ull << nbits_) - 1ull;
  }

  void put_bit(std::uint32_t bit) { put_bits(bit & 1u, 1); }

  // Pad the current byte to a boundary using copies of `pad_bit` (JPEG
  // encoders disagree on the pad polarity; Lepton records it — §A.3).
  void pad_to_byte(std::uint32_t pad_bit) {
    while (nbits_ != 0) put_bit(pad_bit);
  }

  int bit_offset() const { return nbits_; }

  // The bits of the unfinished byte, placed in the most significant
  // positions (the "partial byte" of a handover word).
  std::uint8_t partial_byte() const {
    return nbits_ == 0 ? 0
                       : static_cast<std::uint8_t>(acc_ << (8 - nbits_));
  }

  const std::vector<std::uint8_t>& bytes() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }
  void clear() {
    out_.clear();
    acc_ = 0;
    nbits_ = 0;
  }

 private:
  std::vector<std::uint8_t> out_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

// Reads bits MSB-first from a byte span. Never reads past the end: overruns
// are reported via ok() so callers can classify truncated inputs instead of
// crashing (a hard requirement for hostile-input handling, §5.1).
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint32_t get_bit() {
    if (byte_pos_ >= data_.size()) {
      ok_ = false;
      return 0;
    }
    std::uint32_t bit = (data_[byte_pos_] >> (7 - bit_pos_)) & 1u;
    if (++bit_pos_ == 8) {
      bit_pos_ = 0;
      ++byte_pos_;
    }
    return bit;
  }

  // MSB-first batch read: extracts per byte rather than per bit. Truncation
  // behaves like repeated get_bit() — missing bits read as 0 and ok()
  // flips false.
  std::uint32_t get_bits(int count) {
    std::uint32_t v = 0;
    while (count > 0) {
      if (byte_pos_ >= data_.size()) {
        ok_ = false;
        // count can still be 32 here (nothing consumed yet); a shift by the
        // full width would be UB, so zero-fill explicitly.
        return count < 32 ? v << count : 0;
      }
      int avail = 8 - bit_pos_;
      int take = avail < count ? avail : count;
      std::uint32_t chunk =
          (static_cast<std::uint32_t>(data_[byte_pos_]) >> (avail - take)) &
          ((1u << take) - 1u);
      v = (v << take) | chunk;
      count -= take;
      bit_pos_ += take;
      if (bit_pos_ == 8) {
        bit_pos_ = 0;
        ++byte_pos_;
      }
    }
    return v;
  }

  bool ok() const { return ok_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t byte_pos_ = 0;
  int bit_pos_ = 0;
  bool ok_ = true;
};

}  // namespace lepton::util

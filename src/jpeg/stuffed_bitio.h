// Bit I/O over the JPEG entropy-coded segment, with 0xFF00 byte stuffing.
//
// Shared by the scan decoder (reader), the scan encoder (writer), tests and
// the hot-path microbench. Both classes are built around a 64-bit window:
// the reader refills up to eight bytes at a time and serves multi-bit
// requests with one shift+mask (no per-bit loop), and exposes peek/consume
// so Huffman symbol decode can run off a lookup table; the writer
// accumulates whole symbols into a 64-bit register and can emit into a
// caller-owned, capacity-reserved buffer (the CodecContext scratch-reuse
// path). See DESIGN.md "Performance architecture".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "jpeg/jpeg_types.h"

namespace lepton::jpegfmt {

// Reader that understands 0xFF00 byte stuffing and stops (without
// consuming) at markers. It can report, at any bit position, the
// *file-byte* offset containing the next unconsumed bit — the coordinate a
// Huffman handover word records. Copyable so RST detection can speculate
// and roll back.
class StuffedBitReader {
 public:
  explicit StuffedBitReader(std::span<const std::uint8_t> scan) : d_(scan) {}

  // Returns 0/1, or -1 at end of entropy data (marker or end of span).
  int get_bit() {
    if (wbits_ == 0 && !refill()) return -1;
    --wbits_;
    ++consumed_;
    return static_cast<int>((window_ >> wbits_) & 1u);
  }

  // Returns the value of `n` bits MSB-first (0 <= n <= 32), or -1 on
  // truncation — in which case nothing is consumed. One shift+mask off the
  // 64-bit window; no per-bit loop.
  std::int32_t get_bits(int n) {
    if (n == 0) return 0;
    if (!ensure(n)) return -1;
    wbits_ -= n;
    consumed_ += static_cast<std::uint64_t>(n);
    return static_cast<std::int32_t>((window_ >> wbits_) &
                                     ((1ull << n) - 1ull));
  }

  // Refills until at least `n` bits are buffered; false if the entropy data
  // ends first (the buffered remainder stays readable via get_bit).
  bool ensure(int n) {
    while (wbits_ < n) {
      int before = wbits_;
      refill();
      if (wbits_ == before) return false;
    }
    return true;
  }

  // The next `n` buffered bits, MSB-first, without consuming. Requires a
  // prior successful ensure(n).
  std::uint32_t peek(int n) const {
    return static_cast<std::uint32_t>((window_ >> (wbits_ - n)) &
                                      ((1ull << n) - 1ull));
  }

  // Consumes `n` buffered bits. Requires a prior successful ensure(n).
  void consume(int n) {
    wbits_ -= n;
    consumed_ += static_cast<std::uint64_t>(n);
  }

  // Position of the next unconsumed bit, in scan-relative byte space.
  ScanPos pos() const {
    std::uint64_t byte_idx = consumed_ / 8;
    int bit_off = static_cast<int>(consumed_ % 8);
    if (byte_idx >= n_loaded_) {
      // Next byte not yet loaded; it will be read from pos_.
      return {pos_, 0};
    }
    return {offsets_[byte_idx & 15], bit_off};
  }

  // High `bit_off` bits of the byte at pos() that were already consumed
  // (the "partial byte" of the handover word). Low bits are zeroed.
  std::uint8_t partial_byte() const {
    ScanPos p = pos();
    if (p.bit_off == 0) return 0;
    std::uint8_t b = d_[p.byte_off];
    return static_cast<std::uint8_t>(b & ~((1u << (8 - p.bit_off)) - 1u));
  }

  int bits_into_byte() const { return static_cast<int>(consumed_ % 8); }

  // If the next bytes are an RST marker with the expected index, consume it
  // and return true. Requires an empty bit window (callers consume padding
  // first), so consumed_ == 8 * n_loaded_ and pos() already reports the
  // next-load offset — advancing pos_ past the marker keeps it exact.
  bool consume_rst_marker(int expected_index) {
    if (wbits_ != 0) return false;
    if (pos_ + 1 >= d_.size()) return false;
    if (d_[pos_] != 0xFF) return false;
    std::uint8_t m = d_[pos_ + 1];
    if (m != 0xD0 + expected_index) return false;
    pos_ += 2;
    return true;
  }

 private:
  bool refill() {
    while (wbits_ <= 56) {
      if (pos_ >= d_.size()) break;
      std::uint8_t b = d_[pos_];
      if (b == 0xFF) {
        if (pos_ + 1 >= d_.size()) break;  // lone 0xFF at end: stop
        if (d_[pos_ + 1] != 0x00) break;   // marker: stop before it
        record_loaded(pos_);
        pos_ += 2;  // skip the stuffed 0x00 together with its 0xFF
        push(0xFF);
      } else {
        record_loaded(pos_);
        pos_ += 1;
        push(b);
      }
    }
    return wbits_ > 0;
  }

  void push(std::uint8_t b) {
    window_ = (window_ << 8) | b;
    wbits_ += 8;
  }
  void record_loaded(std::uint64_t off) { offsets_[n_loaded_++ & 15] = off; }

  std::span<const std::uint8_t> d_;
  std::uint64_t pos_ = 0;       // next byte to load
  std::uint64_t window_ = 0;    // right-justified unconsumed bits
  int wbits_ = 0;
  std::uint64_t consumed_ = 0;  // total data bits consumed
  std::uint64_t n_loaded_ = 0;  // total data bytes loaded
  std::uint64_t offsets_[16] = {};  // ring: file offset of each loaded byte
};

// Bit writer with JPEG 0xFF00 stuffing. Emits only completed bytes; can be
// seeded with a handover partial byte and reports its final partial state.
// Symbols accumulate in a 64-bit register and flush through raw stores
// into over-allocated storage — one capacity check per put_bits call
// instead of a push_back (capacity branch + size bump) per byte, which is
// measurable on the decode path's per-block re-encode. The output vector
// can be caller-owned so a long-lived decode loop reuses one grown-once
// allocation; the vector's size() is only authoritative after finish().
class StuffedBitWriter {
 public:
  StuffedBitWriter(std::uint8_t partial, int bit_off)
      : out_(&own_),
        acc_(bit_off == 0 ? 0 : (partial >> (8 - bit_off))),
        nbits_(bit_off) {}

  // Writes into `*out`, cleared up front but keeping its capacity.
  StuffedBitWriter(std::vector<std::uint8_t>* out, std::uint8_t partial,
                   int bit_off)
      : out_(out),
        acc_(bit_off == 0 ? 0 : (partial >> (8 - bit_off))),
        nbits_(bit_off) {
    out_->clear();
  }

  void put_bits(std::uint32_t bits, int n) {
    acc_ = (acc_ << n) | (bits & ((1ull << n) - 1));
    nbits_ += n;
    if (nbits_ < 8) return;
    // A 32-bit put flushes at most 4 bytes, 8 with worst-case stuffing.
    ensure(16);
    std::uint8_t* dst = out_->data() + len_;
    do {
      nbits_ -= 8;
      std::uint8_t b = static_cast<std::uint8_t>(acc_ >> nbits_);
      *dst++ = b;
      if (b == 0xFF) *dst++ = 0x00;
    } while (nbits_ >= 8);
    len_ = static_cast<std::size_t>(dst - out_->data());
    acc_ &= (1ull << nbits_) - 1;
  }

  void pad_to_byte(std::uint32_t pad_bit) {
    if (nbits_ == 0) return;
    std::uint32_t pad = pad_bit ? (1u << (8 - nbits_)) - 1u : 0u;
    put_bits(pad, 8 - nbits_);
  }

  // Markers are written outside the entropy bit stream (must be aligned).
  void put_marker(std::uint8_t m) {
    ensure(2);
    (*out_)[len_++] = 0xFF;
    (*out_)[len_++] = m;
  }

  int bit_offset() const { return nbits_; }
  std::uint8_t partial_byte() const {
    return nbits_ == 0
               ? 0
               : static_cast<std::uint8_t>((acc_ << (8 - nbits_)) & 0xFF);
  }

  // Trims the storage to the emitted length. Must be called exactly once,
  // after the last put; bytes_emitted() stays valid either way.
  void finish() { out_->resize(len_); }

  // Finishes and moves the bytes out (internal buffer) or copies them
  // (external buffer — callers on the reuse path read the buffer directly).
  std::vector<std::uint8_t> take() {
    finish();
    if (out_ == &own_) return std::move(own_);
    return *out_;
  }
  std::size_t bytes_emitted() const { return len_; }

 private:
  void ensure(std::size_t extra) {
    if (out_->size() < len_ + extra) {
      std::size_t grown = out_->size() * 2;
      out_->resize(grown > len_ + extra + 64 ? grown : len_ + extra + 64);
    }
  }

  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* out_;
  std::size_t len_ = 0;  // emitted bytes; out_->size() is the capacity in use
  std::uint64_t acc_;
  int nbits_;
};

}  // namespace lepton::jpegfmt

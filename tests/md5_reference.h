// Test oracle for util::Md5: RFC 1321 in its loop form, one branch per
// round and the additive constants and rotate counts read from tables.
// This was the production kernel until the straight-line round form
// replaced it; it stays here so the fast kernel is checked against an
// independent statement of the same algorithm.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>

namespace lepton::test {

class Md5Reference {
 public:
  void update(std::span<const std::uint8_t> data) {
    total_len_ += data.size();
    std::size_t pos = 0;
    if (buffer_len_ > 0) {
      std::size_t take = std::min(data.size(), 64 - buffer_len_);
      std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
      buffer_len_ += take;
      pos = take;
      if (buffer_len_ == 64) {
        process_block(buffer_.data());
        buffer_len_ = 0;
      }
    }
    while (pos + 64 <= data.size()) {
      process_block(data.data() + pos);
      pos += 64;
    }
    if (pos < data.size()) {
      buffer_len_ = data.size() - pos;
      std::memcpy(buffer_.data(), data.data() + pos, buffer_len_);
    }
  }

  std::array<std::uint8_t, 16> final() {
    std::uint64_t bit_len = total_len_ * 8;
    std::uint8_t pad[72] = {0x80};
    std::size_t pad_len =
        (buffer_len_ < 56) ? 56 - buffer_len_ : 120 - buffer_len_;
    update({pad, pad_len});
    std::uint8_t len_bytes[8];
    std::memcpy(len_bytes, &bit_len, 8);
    update({len_bytes, 8});
    std::array<std::uint8_t, 16> out;
    std::memcpy(out.data(), state_.data(), 16);
    return out;
  }

  static std::array<std::uint8_t, 16> digest(
      std::span<const std::uint8_t> data) {
    Md5Reference h;
    h.update(data);
    return h.final();
  }

 private:
  static constexpr std::array<std::uint32_t, 64> kT = {
      0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu,
      0x4787c62au, 0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu,
      0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u, 0xa679438eu,
      0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
      0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u,
      0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
      0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
      0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
      0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u, 0xd9d4d039u,
      0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u, 0x432aff97u,
      0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du,
      0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
      0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u};

  static constexpr std::array<int, 64> kShift = {
      7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
      5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
      4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
      6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

  static std::uint32_t rotl(std::uint32_t x, int c) {
    return (x << c) | (x >> (32 - c));
  }

  void process_block(const std::uint8_t* block) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
      std::memcpy(&m[i], block + 4 * i, 4);  // little-endian host assumed
    }
    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t f;
      int g;
      if (i < 16) {
        f = (b & c) | (~b & d);
        g = i;
      } else if (i < 32) {
        f = (d & b) | (~d & c);
        g = (5 * i + 1) & 15;
      } else if (i < 48) {
        f = b ^ c ^ d;
        g = (3 * i + 5) & 15;
      } else {
        f = c ^ (b | ~d);
        g = (7 * i) & 15;
      }
      std::uint32_t tmp = d;
      d = c;
      c = b;
      b = b + rotl(a + f + kT[i] + m[g], kShift[i]);
      a = tmp;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
  }

  std::array<std::uint32_t, 4> state_{0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                      0x10325476u};
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
};

}  // namespace lepton::test

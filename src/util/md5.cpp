#include "util/md5.h"

#include <cstring>

namespace lepton::util {
namespace {

// The RFC 1321 auxiliary functions in forms that shorten the dependency
// chain through `x` (the previous step's result); the truth tables are the
// RFC's. G's two terms never share a set bit, so its OR is an ADD and the
// half that does not depend on `x` can be summed in early.
inline std::uint32_t F(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return z ^ (x & (y ^ z));
}
inline std::uint32_t G(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return (x & z) + (y & ~z);
}
inline std::uint32_t H(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return x ^ y ^ z;
}
inline std::uint32_t I(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return y ^ (x | ~z);
}

template <int S>
inline std::uint32_t rotl(std::uint32_t v) {
  return (v << S) | (v >> (32 - S));
}

// One RFC 1321 step: a = b + ((a + fn(b, c, d) + x + t) <<< s).
template <std::uint32_t (*Fn)(std::uint32_t, std::uint32_t, std::uint32_t),
          int S>
inline void step(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                 std::uint32_t d, std::uint32_t x, std::uint32_t t) {
  a = b + rotl<S>(a + Fn(b, c, d) + x + t);
}

}  // namespace

Md5::Md5() : state_{0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u} {}

// The straight-line round form: every constant and rotate count is an
// immediate and no step branches or loads a table entry.
void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  std::memcpy(m, block, 64);  // little-endian host assumed (x86)
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  step<F, 7>(a, b, c, d, m[0], 0xd76aa478u);
  step<F, 12>(d, a, b, c, m[1], 0xe8c7b756u);
  step<F, 17>(c, d, a, b, m[2], 0x242070dbu);
  step<F, 22>(b, c, d, a, m[3], 0xc1bdceeeu);
  step<F, 7>(a, b, c, d, m[4], 0xf57c0fafu);
  step<F, 12>(d, a, b, c, m[5], 0x4787c62au);
  step<F, 17>(c, d, a, b, m[6], 0xa8304613u);
  step<F, 22>(b, c, d, a, m[7], 0xfd469501u);
  step<F, 7>(a, b, c, d, m[8], 0x698098d8u);
  step<F, 12>(d, a, b, c, m[9], 0x8b44f7afu);
  step<F, 17>(c, d, a, b, m[10], 0xffff5bb1u);
  step<F, 22>(b, c, d, a, m[11], 0x895cd7beu);
  step<F, 7>(a, b, c, d, m[12], 0x6b901122u);
  step<F, 12>(d, a, b, c, m[13], 0xfd987193u);
  step<F, 17>(c, d, a, b, m[14], 0xa679438eu);
  step<F, 22>(b, c, d, a, m[15], 0x49b40821u);

  step<G, 5>(a, b, c, d, m[1], 0xf61e2562u);
  step<G, 9>(d, a, b, c, m[6], 0xc040b340u);
  step<G, 14>(c, d, a, b, m[11], 0x265e5a51u);
  step<G, 20>(b, c, d, a, m[0], 0xe9b6c7aau);
  step<G, 5>(a, b, c, d, m[5], 0xd62f105du);
  step<G, 9>(d, a, b, c, m[10], 0x02441453u);
  step<G, 14>(c, d, a, b, m[15], 0xd8a1e681u);
  step<G, 20>(b, c, d, a, m[4], 0xe7d3fbc8u);
  step<G, 5>(a, b, c, d, m[9], 0x21e1cde6u);
  step<G, 9>(d, a, b, c, m[14], 0xc33707d6u);
  step<G, 14>(c, d, a, b, m[3], 0xf4d50d87u);
  step<G, 20>(b, c, d, a, m[8], 0x455a14edu);
  step<G, 5>(a, b, c, d, m[13], 0xa9e3e905u);
  step<G, 9>(d, a, b, c, m[2], 0xfcefa3f8u);
  step<G, 14>(c, d, a, b, m[7], 0x676f02d9u);
  step<G, 20>(b, c, d, a, m[12], 0x8d2a4c8au);

  step<H, 4>(a, b, c, d, m[5], 0xfffa3942u);
  step<H, 11>(d, a, b, c, m[8], 0x8771f681u);
  step<H, 16>(c, d, a, b, m[11], 0x6d9d6122u);
  step<H, 23>(b, c, d, a, m[14], 0xfde5380cu);
  step<H, 4>(a, b, c, d, m[1], 0xa4beea44u);
  step<H, 11>(d, a, b, c, m[4], 0x4bdecfa9u);
  step<H, 16>(c, d, a, b, m[7], 0xf6bb4b60u);
  step<H, 23>(b, c, d, a, m[10], 0xbebfbc70u);
  step<H, 4>(a, b, c, d, m[13], 0x289b7ec6u);
  step<H, 11>(d, a, b, c, m[0], 0xeaa127fau);
  step<H, 16>(c, d, a, b, m[3], 0xd4ef3085u);
  step<H, 23>(b, c, d, a, m[6], 0x04881d05u);
  step<H, 4>(a, b, c, d, m[9], 0xd9d4d039u);
  step<H, 11>(d, a, b, c, m[12], 0xe6db99e5u);
  step<H, 16>(c, d, a, b, m[15], 0x1fa27cf8u);
  step<H, 23>(b, c, d, a, m[2], 0xc4ac5665u);

  step<I, 6>(a, b, c, d, m[0], 0xf4292244u);
  step<I, 10>(d, a, b, c, m[7], 0x432aff97u);
  step<I, 15>(c, d, a, b, m[14], 0xab9423a7u);
  step<I, 21>(b, c, d, a, m[5], 0xfc93a039u);
  step<I, 6>(a, b, c, d, m[12], 0x655b59c3u);
  step<I, 10>(d, a, b, c, m[3], 0x8f0ccc92u);
  step<I, 15>(c, d, a, b, m[10], 0xffeff47du);
  step<I, 21>(b, c, d, a, m[1], 0x85845dd1u);
  step<I, 6>(a, b, c, d, m[8], 0x6fa87e4fu);
  step<I, 10>(d, a, b, c, m[15], 0xfe2ce6e0u);
  step<I, 15>(c, d, a, b, m[6], 0xa3014314u);
  step<I, 21>(b, c, d, a, m[13], 0x4e0811a1u);
  step<I, 6>(a, b, c, d, m[4], 0xf7537e82u);
  step<I, 10>(d, a, b, c, m[11], 0xbd3af235u);
  step<I, 15>(c, d, a, b, m[2], 0x2ad7d2bbu);
  step<I, 21>(b, c, d, a, m[9], 0xeb86d391u);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) {
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

std::array<std::uint8_t, 16> Md5::final() {
  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[72] = {0x80};
  std::size_t pad_len = (buffer_len_ < 56) ? 56 - buffer_len_
                                           : 120 - buffer_len_;
  update({pad, pad_len});
  std::uint8_t len_bytes[8];
  std::memcpy(len_bytes, &bit_len, 8);
  update({len_bytes, 8});
  std::array<std::uint8_t, 16> out;
  std::memcpy(out.data(), state_.data(), 16);
  return out;
}

std::array<std::uint8_t, 16> Md5::digest(std::span<const std::uint8_t> data) {
  Md5 h;
  h.update(data);
  return h.final();
}

std::string Md5::hex_digest(std::span<const std::uint8_t> data) {
  return hex(digest(data));
}

std::string Md5::hex(const std::array<std::uint8_t, 16>& sum) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(32);
  for (std::uint8_t b : sum) {
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 15]);
  }
  return s;
}

}  // namespace lepton::util

// MD5 (RFC 1321). Production Lepton md5sums the compressed file before the
// round-trip test so in-memory corruption between check and admit is caught
// (§5.7). Used here by the TransparentStore admit path, every DurableStore
// read and its recovery sweep, the sharded store's decode-cache key, and
// the safety tests. Not for security; for integrity-of-buffer checks exactly as
// deployed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace lepton::util {

class Md5 {
 public:
  Md5();
  void update(std::span<const std::uint8_t> data);
  std::array<std::uint8_t, 16> final();

  static std::array<std::uint8_t, 16> digest(
      std::span<const std::uint8_t> data);
  static std::string hex_digest(std::span<const std::uint8_t> data);
  // Lower-case hex of a digest, as hex_digest() spells it.
  static std::string hex(const std::array<std::uint8_t, 16>& sum);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 4> state_;
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
};

}  // namespace lepton::util

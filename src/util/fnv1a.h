// 64-bit FNV-1a: the durable store's journal record checksum, the hash
// ring's placement and the failpoint layer's per-site seeds. Journal lines
// and placement are on-disk contracts, so its values are pinned in tests
// and never change. Not cryptographic.
#pragma once

#include <cstdint>
#include <string_view>

namespace lepton::util {

constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace lepton::util

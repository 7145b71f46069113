// Adaptive "statistic bin" (the paper's unit of model state, §3.2).
//
// Each Branch tracks how many zeros and ones it has coded and exposes an
// 8-bit probability for the range coder. Bins start at 50-50 and adapt
// independently as the file is coded (§3.2); per-thread models are
// independent copies, which is why more threads cost a little compression.
#pragma once

#include <cstdint>

namespace lepton::coding {

namespace detail {

// The count→probability division is baked into a compile-time table
// indexed by the packed 16-bit count word (zeros in the low byte, ones in
// the high byte). Counts are virtual (start at 1/1) and renormalization
// keeps both >= 1, so zero-count entries are never read; they hold the
// clamp floor anyway.
struct ProbZeroTable {
  std::uint8_t p[65536];
};

inline constexpr ProbZeroTable make_prob_zero_table() {
  ProbZeroTable t{};
  for (unsigned z = 0; z < 256; ++z) {
    for (unsigned o = 0; o < 256; ++o) {
      unsigned total = z + o;
      unsigned v = total == 0 ? 128 : (z << 8) / total;
      t.p[z | (o << 8)] =
          static_cast<std::uint8_t>(v < 1 ? 1 : (v > 255 ? 255 : v));
    }
  }
  return t;
}

inline constexpr ProbZeroTable kProbZero = make_prob_zero_table();

}  // namespace detail

// Layout notes, both load-bearing:
//  * The whole bin is one uint32_t (counts in the low 16 bits, cached
//    probability in bits 16..23): record() stores that one whole word,
//    never a lone uint8_t — a uint8_t (unsigned char) store may alias
//    anything under the strict-aliasing rules, which forced the compiler
//    to reload the inlined range-coder state (low/range/code) from memory
//    after every coded bit when counts were updated bytewise.
//  * The probability is cached *in the bin* and refreshed by record().
//    prob_zero() is the first operation of every coded bit — the single
//    hottest load in the codec — and sits on the serial decode chain
//    (bound depends on it). A load of the packed count word followed by a
//    dependent 64 KiB table load put two chained loads on that critical
//    path; caching the table byte next to the counts makes it one L1 load
//    from the cluster line the surrounding bins already pulled in, and
//    moves the table lookup into record(), off the chain.
class Branch {
 public:
  // P(bit == 0) scaled to [1, 255]; starts at 128 (50-50).
  std::uint8_t prob_zero() const {
    return static_cast<std::uint8_t>(bits_ >> 16);
  }

  void record(bool bit) {
    std::uint32_t c = bits_ & 0xFFFFu;
    if ((bit ? (c >> 8) : (c & 0xFF)) == 0xFF) {
      // Renormalize: halve both counts (keeping >= 1) so the bin keeps
      // adapting to recent statistics instead of saturating.
      std::uint32_t z = ((c & 0xFF) + 1u) >> 1;
      std::uint32_t o = ((c >> 8) + 1u) >> 1;
      c = z | (o << 8);
    }
    c += bit ? 0x0100u : 0x0001u;
    bits_ = c | (static_cast<std::uint32_t>(detail::kProbZero.p[c]) << 16);
  }

 private:
  // ones << 8 | zeros in the low half (1/1 == 50-50 prior), kProbZero of
  // those counts in bits 16..23, top byte zero.
  std::uint32_t bits_ = 0x0101u | (128u << 16);
};

static_assert(sizeof(Branch) == 4, "bins are the model's memory footprint");

}  // namespace lepton::coding

// Benchmark inputs: a fixed corpus of base JPEGs per family, generated once
// and cached on disk, from which every operation's bytes are derived by
// inserting a COM segment that names the run seed and the key. The COM
// segment makes every put and every stored key distinct content (the
// durable store and the decode cache are both content-addressed) while the
// codec work stays that of the base image. The run seed picks the op order,
// the COM bytes and the Zipf draws.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class InputFamily {
  // Paper-sized photos: 32 sizes at the stratified quantiles of a
  // log-normal with a 1.5 MiB mean, capped at 4 MiB (about 0.28 .. 4 MiB),
  // i.e. 2, 4 or 8 thread segments.
  kLarge,
  // Small photos and thumbnails: 32 sizes spread log-uniformly over
  // 8 .. 127 KiB, one segment each.
  kSmall,
};

struct InputSet {
  std::vector<std::vector<std::uint8_t>> bases;
  bool generated = false;  // false = loaded from the on-disk cache
  double seconds = 0;      // time spent generating or loading
};

// Loads the family's corpus from `cache_dir`, generating and storing it
// first when absent. Empty `bases` with *err set on an I/O failure.
InputSet load_inputs(InputFamily family, const std::string& cache_dir,
                     std::string* err);

// `base` with a COM segment carrying `tag` inserted right after SOI.
std::vector<std::uint8_t> with_comment(std::span<const std::uint8_t> base,
                                       std::string_view tag);

}  // namespace perfbench

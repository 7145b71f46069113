// Qualification and determinism machinery (§5.2, §5.7).
//
// Before any Lepton version reaches production it is "qualified": run over
// a large corpus, every output decompressed with the same binary and again
// with an independently built decoder, results compared byte-for-byte. The
// paper's fail-safe caught a nondeterministic buffer overrun after a few
// million images this way. We reproduce the harness: the second decode uses
// a different execution schedule (serial vs parallel) as the stand-in for
// "a different compiler's binary", plus an optional fault-injection hook so
// the tests can prove the detector actually detects.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "lepton/codec.h"
#include "lepton/context.h"

namespace lepton {

struct QualificationReport {
  std::uint64_t files = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;   // classified, by design
  std::uint64_t mismatches = 0; // decode(encode(x)) != x — must stay 0
  std::uint64_t nondeterminism = 0;  // two decodes disagreed — pages a human
  std::array<std::uint64_t,
             static_cast<std::size_t>(util::ExitCode::kCount)> by_code{};
  std::vector<std::string> alerts;

  bool clean() const { return mismatches == 0 && nondeterminism == 0; }
};

class QualificationRunner {
 public:
  explicit QualificationRunner(EncodeOptions opts = {}) : opts_(opts) {}

  // Runs the full qualification protocol over one file and folds the
  // outcome into the report.
  void run_file(std::span<const std::uint8_t> file, QualificationReport* rep);

  // Fault injection for testing the detector itself: called on the second
  // decode's output buffer before comparison.
  void set_second_decode_mutator(
      std::function<void(std::vector<std::uint8_t>&)> fn) {
    mutator_ = std::move(fn);
  }

 private:
  EncodeOptions opts_;
  CodecContext serial_{0};  // decode #2's schedule: no pool workers
  std::function<void(std::vector<std::uint8_t>&)> mutator_;
};

}  // namespace lepton

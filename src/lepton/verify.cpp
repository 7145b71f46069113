#include "lepton/verify.h"

#include <algorithm>

#include "lepton/store.h"

namespace lepton {

void QualificationRunner::run_file(std::span<const std::uint8_t> file,
                                   QualificationReport* rep) {
  ++rep->files;
  Result enc = encode_jpeg(file, opts_);
  auto code_idx = static_cast<std::size_t>(enc.code);
  if (!enc.ok()) {
    ++rep->rejected;
    ++rep->by_code[code_idx];
    return;
  }

  // Decode #1: production configuration (multithreaded) through the §5.7
  // admission gate (store.h), so a file qualifies exactly when the store
  // would admit its container: a "successful" decode whose arithmetic
  // payload overran or was left unconsumed is a corrupt stream that
  // happened to produce the right byte count.
  DecodeStats stats;
  if (roundtrip_gate(file, enc.data, &stats) != util::ExitCode::kSuccess) {
    ++rep->mismatches;
    ++rep->by_code[static_cast<std::size_t>(util::ExitCode::kRoundtripFailed)];
    rep->alerts.push_back(
        stats.payload_overrun
            ? "decoder overran its arithmetic payload (truncation, §5.7)"
        : !stats.payload_exhausted
            ? "decoder left arithmetic payload unconsumed (§5.7)"
            : "round-trip mismatch (pages the on-call, §5.7)");
    return;
  }

  // Decode #2: independent schedule (the gcc/asan single-threaded build in
  // production, §5.2/§5.6) — every segment serially on the calling thread,
  // on the runner's zero-worker context; decode #1 reproduced `file`, so #2
  // must too.
  Result d2 = serial_.decode({enc.data.data(), enc.data.size()});
  if (mutator_) mutator_(d2.data);
  if (!d2.ok() || !std::equal(d2.data.begin(), d2.data.end(), file.begin(),
                              file.end())) {
    ++rep->nondeterminism;
    rep->alerts.push_back(
        "two decodes of one file disagree: nondeterminism (§5.2)");
    return;
  }
  ++rep->admitted;
  ++rep->by_code[static_cast<std::size_t>(util::ExitCode::kSuccess)];
}

}  // namespace lepton

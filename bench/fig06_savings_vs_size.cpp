// Figure 6: compression savings vs file size. Paper: savings are uniform
// (~23%) across 0-4 MiB; small images stay competitive because they get
// fewer threads, so each statistic bin sees more of the image (§5.4).
#include "bench_common.h"
#include "lepton/codec.h"

int main(int argc, char** argv) {
  bool full = bench::want_full(argc, argv);
  bench::header("Figure 6: savings vs file size",
                "uniform ~23% across sizes (thread policy keeps small files "
                "competitive)");

  std::printf("%12s %10s %9s\n", "size KiB", "savings %", "threads");
  for (const auto& f : bench::corpus(full)) {
    if (f.kind != lepton::corpus::FileKind::kBaselineJpeg) continue;
    auto enc = lepton::encode_jpeg({f.bytes.data(), f.bytes.size()});
    if (!enc.ok()) continue;
    double savings =
        100.0 * (1.0 - static_cast<double>(enc.data.size()) / f.bytes.size());
    std::printf("%12.1f %9.1f%% %9d\n", f.bytes.size() / 1024.0, savings,
                lepton::threads_for_size(f.bytes.size()));
  }
  return 0;
}

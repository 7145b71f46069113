// §4.3 / §A.2 ablations: what each model component buys.
// Paper: Lakhani edge prediction improves edge-coefficient compression from
// 82.5% to 78.7% (1.5% of overall savings); DC gradient prediction improves
// DC from 79.4% to 59.9% (1.6% overall); zigzag ordering of the 7x7 block
// is worth ~0.2% over raster order.
#include "bench_common.h"
#include "lepton/codec.h"

namespace {

double total_ratio(const std::vector<lepton::corpus::CorpusFile>& corpus,
                   const lepton::model::ModelOptions& m) {
  std::uint64_t in = 0, out = 0;
  lepton::EncodeOptions opt;
  opt.force_threads = 1;  // isolate the model from threading effects
  opt.model = m;
  for (const auto& f : corpus) {
    if (f.kind != lepton::corpus::FileKind::kBaselineJpeg) continue;
    auto enc = lepton::encode_jpeg({f.bytes.data(), f.bytes.size()}, opt);
    if (!enc.ok()) continue;
    in += f.bytes.size();
    out += enc.data.size();
  }
  return 100.0 * static_cast<double>(out) / static_cast<double>(in);
}

}  // namespace

int main(int argc, char** argv) {
  bool full = bench::want_full(argc, argv);
  bench::header("§4.3 ablations: model components",
                "edges 82.5->78.7; DC 79.4->59.9; zigzag worth ~0.2%");
  const auto& corpus = bench::corpus(full);

  lepton::model::ModelOptions full_model;
  lepton::model::ModelOptions no_edges = full_model;
  no_edges.lakhani_edges = false;
  lepton::model::ModelOptions no_dc = full_model;
  no_dc.dc_gradient = false;
  lepton::model::ModelOptions raster = full_model;
  raster.zigzag_77 = false;

  double r_full = total_ratio(corpus, full_model);
  double r_noedge = total_ratio(corpus, no_edges);
  double r_nodc = total_ratio(corpus, no_dc);
  double r_raster = total_ratio(corpus, raster);

  std::printf("%-38s %14s %12s\n", "configuration", "total ratio %",
              "delta pp");
  std::printf("%-38s %13.2f%% %12s\n", "full model (shipped)", r_full, "-");
  std::printf("%-38s %13.2f%% %+11.2f\n",
              "no Lakhani edges (7x7-style instead)", r_noedge,
              r_noedge - r_full);
  std::printf("%-38s %13.2f%% %+11.2f\n",
              "no DC gradient (neighbour-DC average)", r_nodc,
              r_nodc - r_full);
  std::printf("%-38s %13.2f%% %+11.2f\n", "raster 7x7 order (no zigzag)",
              r_raster, r_raster - r_full);
  std::printf("\nshape check: every ablation must not beat the full model; "
              "DC gradient is the largest single win (paper: 1.6pp overall)\n");
  return 0;
}

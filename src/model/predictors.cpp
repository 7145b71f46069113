#include "model/predictors.h"

#include "jpeg/dct.h"

namespace lepton::model {
namespace {

inline std::int32_t abs32(std::int32_t v) { return v < 0 ? -v : v; }

// Round-to-nearest division, deterministic for negative numerators.
inline std::int32_t round_div(std::int64_t num, std::int64_t den) {
  if (num >= 0) return static_cast<std::int32_t>((num + den / 2) / den);
  return static_cast<std::int32_t>(-((-num + den / 2) / den));
}

}  // namespace

std::int32_t avg_neighbor_value(const Neighbors& nb, int nat) {
  return avg_neighbor_value_at(
      nb.above != nullptr ? nb.above->coef.data() : nullptr,
      nb.left != nullptr ? nb.left->coef.data() : nullptr,
      nb.above_left != nullptr ? nb.above_left->coef.data() : nullptr, nat);
}

std::int32_t lakhani_edge_prediction(int orientation, int index,
                                     const std::int16_t* cur,
                                     const BlockState* neighbor,
                                     const std::uint16_t* q) {
  if (neighbor == nullptr || index < 1 || index > 7) return 0;
  using jpegfmt::dct_basis_q20;
  // Continuity of pixels across the shared edge (§A.2.2):
  //   B00·F[u][0] = Σ_v B(7,v)·Ldq[u][v] − Σ_{v≥1} B(0,v)·Fdq[u][v]
  // for orientation 0 (left neighbour), and the transposed form with the
  // above neighbour for orientation 1. All terms dequantized; the result is
  // re-quantized to the edge coefficient's own step.
  std::int64_t num = 0;
  if (orientation == 0) {
    const int u = index;
    for (int v = 0; v < 8; ++v) {
      std::int64_t ldq = static_cast<std::int64_t>(neighbor->coef[u * 8 + v]) *
                         q[u * 8 + v];
      num += dct_basis_q20(7, v) * ldq;
    }
    for (int v = 1; v < 8; ++v) {
      std::int64_t fdq =
          static_cast<std::int64_t>(cur[u * 8 + v]) * q[u * 8 + v];
      num -= dct_basis_q20(0, v) * fdq;
    }
    std::int64_t pred_dq = num / dct_basis_q20(0, 0);
    return round_div(pred_dq, q[u * 8 + 0]);
  }
  const int v = index;
  for (int u = 0; u < 8; ++u) {
    std::int64_t adq = static_cast<std::int64_t>(neighbor->coef[u * 8 + v]) *
                       q[u * 8 + v];
    num += dct_basis_q20(7, u) * adq;
  }
  for (int u = 1; u < 8; ++u) {
    std::int64_t fdq = static_cast<std::int64_t>(cur[u * 8 + v]) * q[u * 8 + v];
    num -= dct_basis_q20(0, u) * fdq;
  }
  std::int64_t pred_dq = num / dct_basis_q20(0, 0);
  return round_div(pred_dq, q[0 * 8 + v]);
}

void ac_only_pixels(const std::int16_t* coef, const std::uint16_t* q,
                    std::int32_t px_out[64]) {
  jpegfmt::idct_8x8_dequant_ac(coef, q, px_out);
}

DcPrediction predict_dc_gradient(const Neighbors& nb,
                                 const std::int32_t* px_ac,
                                 const std::uint16_t* q) {
  const std::int32_t* above_bottom =
      (nb.above != nullptr && nb.above->valid) ? nb.above->px_bottom.data()
                                               : nullptr;
  const std::int32_t* left_right =
      (nb.left != nullptr && nb.left->valid) ? nb.left->px_right.data()
                                             : nullptr;
  return predict_dc_gradient_edges(above_bottom, left_right, px_ac, q);
}

DcPrediction predict_dc_gradient_edges(const std::int32_t* above_bottom,
                                       const std::int32_t* left_right,
                                       const std::int32_t* px_ac,
                                       const std::uint16_t* q) {
  // Each border pair yields an estimate of the 8x-scaled DC pixel shift s
  // (== F00·q00 exactly, see dct.h): the gradient inside the neighbour and
  // the gradient inside the current block should meet seamlessly at the
  // seam (§A.2.3, Figure 17 right).
  std::int32_t est[16];
  int n = 0;
  if (above_bottom != nullptr) {
    for (int x = 0; x < 8; ++x) {
      std::int32_t a6 = above_bottom[x];
      std::int32_t a7 = above_bottom[8 + x];
      std::int32_t c0 = px_ac[x];        // row 0
      std::int32_t c1 = px_ac[8 + x];    // row 1
      std::int32_t p = a7 + ((a7 - a6) + (c1 - c0)) / 2;
      est[n++] = p - c0;
    }
  }
  if (left_right != nullptr) {
    for (int y = 0; y < 8; ++y) {
      std::int32_t l6 = left_right[y * 2 + 0];
      std::int32_t l7 = left_right[y * 2 + 1];
      std::int32_t c0 = px_ac[y * 8 + 0];  // col 0
      std::int32_t c1 = px_ac[y * 8 + 1];  // col 1
      std::int32_t p = l7 + ((l7 - l6) + (c1 - c0)) / 2;
      est[n++] = p - c0;
    }
  }
  DcPrediction out;
  if (n == 0) return out;  // no context: predict 0 with zero confidence
  std::int64_t sum = 0;
  std::int32_t mn = est[0], mx = est[0];
  for (int i = 0; i < n; ++i) {
    sum += est[i];
    mn = est[i] < mn ? est[i] : mn;
    mx = est[i] > mx ? est[i] : mx;
  }
  std::int32_t q00 = q[0] == 0 ? 1 : q[0];
  // n is 8 (one neighbour) or 16 (both): constant-divisor branches let the
  // compiler turn the estimate average into shifts instead of a division.
  std::int32_t avg = n == 16 ? round_div(sum, 16) : round_div(sum, 8);
  out.predicted_dc = round_div(avg, q00);
  out.spread = static_cast<std::uint32_t>((mx - mn) / q00);
  return out;
}

DcPrediction predict_dc_simple(const Neighbors& nb,
                               const std::uint16_t* /*q*/) {
  const std::int16_t* above_dc =
      (nb.above != nullptr && nb.above->valid) ? nb.above->coef.data() : nullptr;
  const std::int16_t* left_dc =
      (nb.left != nullptr && nb.left->valid) ? nb.left->coef.data() : nullptr;
  return predict_dc_simple_vals(above_dc, left_dc);
}

DcPrediction predict_dc_simple_vals(const std::int16_t* above_dc,
                                    const std::int16_t* left_dc) {
  DcPrediction out;
  int n = 0;
  std::int32_t sum = 0;
  std::int32_t vals[2] = {0, 0};
  if (above_dc != nullptr) {
    vals[n] = *above_dc;
    sum += vals[n++];
  }
  if (left_dc != nullptr) {
    vals[n] = *left_dc;
    sum += vals[n++];
  }
  if (n == 0) return out;
  out.predicted_dc = sum / n;
  out.spread = n == 2 ? static_cast<std::uint32_t>(abs32(vals[0] - vals[1]))
                      : 0u;
  return out;
}

void finalize_block_pixels(BlockState& bs, const std::int32_t* px_ac,
                           const std::uint16_t* q) {
  // DC of d (quantized) shifts every 8x-scaled sample by exactly d*q00.
  std::int32_t shift = static_cast<std::int32_t>(bs.coef[0]) * q[0];
  for (int x = 0; x < 8; ++x) {
    bs.px_bottom[x] = px_ac[6 * 8 + x] + shift;
    bs.px_bottom[8 + x] = px_ac[7 * 8 + x] + shift;
  }
  for (int y = 0; y < 8; ++y) {
    bs.px_right[y * 2 + 0] = px_ac[y * 8 + 6] + shift;
    bs.px_right[y * 2 + 1] = px_ac[y * 8 + 7] + shift;
  }
  bs.valid = true;
}

}  // namespace lepton::model

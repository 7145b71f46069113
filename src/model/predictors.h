// Coefficient predictors (§3.3, §A.2).
//
// Three predictor families, all computed identically on the encode and
// decode side from already-coded data:
//  * 7x7: weighted neighbour average  F̄ = (13·FA + 13·FL + 6·FAL) / 32,
//  * 7x1/1x7 edges: Lakhani's DCT-domain continuity solve — an entire
//    neighbour row/column of coefficients predicts each edge coefficient,
//  * DC: pixel-gradient extrapolation from the two adjacent rows/columns of
//    neighbouring blocks, with a confidence measure (max − min prediction).
//
// All arithmetic is integer (Q20 basis tables, int64 accumulation) so the
// model is bit-deterministic — the deployment property §5.2 is built on.
#pragma once

#include <array>
#include <cstdint>

#include "jpeg/jpeg_types.h"

namespace lepton::model {

// Fully decoded state of a neighbouring block, kept in the codec's row ring.
struct BlockState {
  std::array<std::int16_t, 64> coef{};   // natural order, quantized
  std::uint8_t nz77 = 0;                 // non-zero count in the 7x7 interior
  // Final pixels (8x-scaled, no +128 shift) adjacent to later blocks:
  std::array<std::int32_t, 16> px_bottom{};  // rows 6,7: [row-6][x] flattened
  std::array<std::int32_t, 16> px_right{};   // cols 6,7: [y][col-6] flattened
  bool valid = false;
};

// Neighbourhood view for one block being coded.
struct Neighbors {
  const BlockState* above = nullptr;
  const BlockState* left = nullptr;
  const BlockState* above_left = nullptr;
};

// Signed weighted average of the neighbours' coefficient values (fallback
// edge predictor when the Lakhani path is ablated).
std::int32_t avg_neighbor_value(const Neighbors& nb, int nat);

// Raw-pointer core of avg_neighbor_value (null = absent neighbour,
// contributes zero; truncating division). The BlockState overload and the
// encode-side context plane both call this, so the two paths cannot
// drift.
inline std::int32_t avg_neighbor_value_at(const std::int16_t* above,
                                          const std::int16_t* left,
                                          const std::int16_t* above_left,
                                          int nat) {
  std::int32_t sum = 0;
  if (above != nullptr) sum += 13 * above[nat];
  if (left != nullptr) sum += 13 * left[nat];
  if (above_left != nullptr) sum += 6 * above_left[nat];
  return sum / 32;
}

// Lakhani edge prediction (§A.2.2). Predicts the quantized value of an edge
// coefficient from the adjacent block's full coefficient row/column plus the
// current block's already-coded 7x7 interior.
//   orientation 0: F[u][0] (7x1 column), u in 1..7, predicted from `left`
//   orientation 1: F[0][v] (1x7 row),    v in 1..7, predicted from `above`
// `cur` holds the current block's coefficients coded so far (7x7 interior
// complete). Returns 0 when the required neighbour is absent.
std::int32_t lakhani_edge_prediction(int orientation, int index,
                                     const std::int16_t* cur,
                                     const BlockState* neighbor,
                                     const std::uint16_t* q);

// DC prediction (§A.2.3).
struct DcPrediction {
  std::int32_t predicted_dc = 0;   // quantized DC prediction
  std::uint32_t spread = 0;        // max−min of the 16 estimates, /q00
};

// Gradient predictor: interpolates pixel gradients across the block seam
// using the neighbours' last two pixel rows/columns and the current block's
// AC-only pixels (8x-scaled IDCT with DC=0, passed as `px_ac`).
DcPrediction predict_dc_gradient(const Neighbors& nb,
                                 const std::int32_t* px_ac,
                                 const std::uint16_t* q);

// Same predictor over raw pixel-edge pointers (null = absent neighbour):
// `above_bottom` is the above block's px_bottom layout, `left_right` the
// left block's px_right layout. The BlockState overload above delegates
// here; the encode-side context plane calls it with its own rolling pixel
// rows. One implementation, so the two paths cannot drift.
DcPrediction predict_dc_gradient_edges(const std::int32_t* above_bottom,
                                       const std::int32_t* left_right,
                                       const std::int32_t* px_ac,
                                       const std::uint16_t* q);

// First-cut / ablation predictor: neighbour DC average ("baseline PackJPG"
// behaviour per §4.3).
DcPrediction predict_dc_simple(const Neighbors& nb, const std::uint16_t* q);

// Raw-value form of the simple predictor (null = absent neighbour).
DcPrediction predict_dc_simple_vals(const std::int16_t* above_dc,
                                    const std::int16_t* left_dc);

// Computes the 8x-scaled AC-only pixels of a block (DC forced to zero).
void ac_only_pixels(const std::int16_t* coef, const std::uint16_t* q,
                    std::int32_t px_out[64]);

// Fills BlockState.px_bottom / px_right from AC-only pixels + the final DC.
void finalize_block_pixels(BlockState& bs, const std::int32_t* px_ac,
                           const std::uint16_t* q);

}  // namespace lepton::model

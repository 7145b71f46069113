// Drives the probability model over the blocks of one thread segment.
//
// Templated over coding::EncodeOps / coding::DecodeOps; the two sides reach
// the same model bins by different routes. The decoder derives every
// context per block from its two-row rings (code_block): that derivation
// is the format's reference. The encoder knows every coefficient up front,
// so it reads the same contexts from the precomputed context plane
// (model/context_plane.h) and its coder loop only feeds the BoolEncoder.
// Every encode is checked against the reference by a round trip, so a
// plane that drifted from the decoder's derivation cannot pass unseen
// (§5.2's determinism requirement). The decoder streams: it holds exactly
// two block rows of context per component (the row being coded and the row
// above it), which is what keeps Lepton's decode working set fixed
// regardless of image height (§1 "Memory", §5.4).
//
// Block coding order within a block (§3.3/§A.2): the 7x7 interior count,
// the 7x7 values (zigzag), the 7x1 column edge, the 1x7 row edge, and the
// DC last — DC prediction gets to use every AC coefficient.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/coder_ops.h"
#include "jpeg/dct.h"
#include "jpeg/jpeg_types.h"
#include "jpeg/parser.h"
#include "model/context_plane.h"
#include "model/model.h"
#include "model/predictors.h"
#include "util/tracked_memory.h"

namespace lepton::model {

// Zigzag-ordered natural indices of the 49 interior (7x7) coefficients.
struct Interior77 {
  std::array<std::uint8_t, kNum77> zigzag_order{};  // natural indices
  std::array<std::uint8_t, kNum77> raster_order{};
  Interior77() {
    int zi = 0, ri = 0;
    for (int k = 1; k < 64; ++k) {
      int nat = jpegfmt::kZigzag[k];
      if ((nat >> 3) != 0 && (nat & 7) != 0) {
        zigzag_order[zi++] = static_cast<std::uint8_t>(nat);
      }
    }
    for (int u = 1; u < 8; ++u) {
      for (int v = 1; v < 8; ++v) {
        raster_order[ri++] = static_cast<std::uint8_t>(u * 8 + v);
      }
    }
  }
};

inline const Interior77& interior77() {
  static const Interior77 t;
  return t;
}

// Read-prefetch `p` into all cache levels; no-op on compilers without the
// builtin. Used to pull the next block's context-ring rows in while the
// current block's serial bit chain is still resolving.
inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

// Compressed-size attribution per block section (encode side only; byte
// granularity integrates accurately over many blocks). Feeds the Figure 4
// component-breakdown bench.
struct SectionTally {
  std::uint64_t bytes_77 = 0;    // non-zero count + 7x7 values
  std::uint64_t bytes_edge = 0;  // 7x1/1x7 counts + values
  std::uint64_t bytes_dc = 0;    // DC delta
};

// The two context block rows a SegmentCodec keeps per component. Owned
// externally (CodecContext worker scratch) so repeated codec runs reuse the
// grown-once ring allocations; SegmentCodec re-shapes it to the current
// frame geometry and invalidates every slot on construction.
struct SegmentRings {
  std::vector<std::array<util::tracked_vector<BlockState>, 2>> comps;
};

template <typename Ops>
class SegmentCodec {
 public:
  // `scratch` (optional) supplies reusable ring storage; when null the
  // codec owns its rings. Either way every slot starts invalid — a segment
  // boundary behaves like the top of the image.
  SegmentCodec(Ops ops, ProbabilityModel& pm, const jpegfmt::JpegFile& jf,
               const ModelOptions& opts, SegmentRings* scratch = nullptr)
      : ops_(ops),
        pm_(pm),
        jf_(jf),
        opts_(opts),
        rings_(scratch != nullptr ? scratch : &own_rings_) {
    const auto& fr = jf.frame;
    rings_->comps.resize(fr.comps.size());
    for (std::size_t c = 0; c < fr.comps.size(); ++c) {
      auto wb = static_cast<std::size_t>(fr.comps[c].width_blocks);
      for (auto& row : rings_->comps[c]) {
        row.resize(wb);
        for (auto& bs : row) bs.valid = false;  // clear reused slots
      }
    }
    // Fold the quantization table into the Lakhani basis rows once per
    // segment: the edge predictor then spends one multiply per term
    // instead of two, on a path that runs for every edge coefficient.
    if (opts_.lakhani_edges) {
      for (std::size_t c = 0; c < fr.comps.size(); ++c) {
        build_edge_tables(edge_tables_[c],
                          jf.qtables[fr.comps[c].quant_idx].q.data());
      }
    }
  }

  // Attaches the encode-side context-plane scratch every encode runs on
  // (per-row precompute, then a coder loop that only feeds the
  // BoolEncoder). Required before the first code_mcu_row on the encode
  // instantiation; decode instantiations never read it.
  void attach_plane(ContextPlane* plane) {
    plane_ = plane;
    plane_->reshape(jf_.frame);
  }

  // Codes one MCU row. On encode, `source` supplies ground-truth blocks
  // (and attach_plane must have been called); on decode pass nullptr.
  // Decoded coefficients land in the ring and can be read back with
  // row_block() until the next call for that parity.
  void code_mcu_row(int my, const jpegfmt::CoeffImage* source) {
    if constexpr (Ops::kEncoding) {
      code_mcu_row_plane(my, *source);
      plane_row_coded_ = true;
    } else {
      const auto& fr = jf_.frame;
      for (int mx = 0; mx < fr.mcus_x; ++mx) {
        for (int ci = 0; ci < fr.ncomp(); ++ci) {
          const auto& comp = fr.comps[ci];
          for (int sy = 0; sy < comp.v_samp; ++sy) {
            for (int sx = 0; sx < comp.h_samp; ++sx) {
              int bx = fr.ncomp() == 1 ? mx : mx * comp.h_samp + sx;
              int by = fr.ncomp() == 1 ? my : my * comp.v_samp + sy;
              code_block(ci, bx, by);
            }
          }
        }
      }
    }
  }

  // Read back a decoded block from the ring (valid for the two most recent
  // block rows of the component).
  const std::int16_t* row_block(int ci, int bx, int by) const {
    return rings_->comps[ci][by & 1][static_cast<std::size_t>(bx)].coef.data();
  }

  // Attribute compressed bytes to block sections (encode side only).
  void set_tally(SectionTally* t) { tally_ = t; }

 private:
  // The decoder's per-block context derivation — the reference every
  // plane field must reproduce.
  void code_block(int ci, int bx, int by) {
    static_assert(!Ops::kEncoding, "encode runs the context plane");
    const auto& comp = jf_.frame.comps[ci];
    const std::uint16_t* q = jf_.qtables[comp.quant_idx].q.data();
    KindModel& km = pm_.for_component(ci);

    auto& cur_row = rings_->comps[ci][by & 1];
    auto& prev_row = rings_->comps[ci][(by - 1) & 1];
    BlockState& bs = cur_row[static_cast<std::size_t>(bx)];
    // Pull the next block's context into cache while this block's serial
    // bit chain runs: its above neighbour (read-only) and the far end of
    // its ring slot. A BlockState is several lines; the two hottest are its
    // coefficient array (offset 0) and the pixel rows used by DC prediction.
    if (bx + 1 < static_cast<int>(cur_row.size())) {
      const BlockState* nxt_above = &prev_row[static_cast<std::size_t>(bx + 1)];
      prefetch_ro(nxt_above);
      prefetch_ro(reinterpret_cast<const std::uint8_t*>(nxt_above) + 128);
    }
    // Clear only what later reads depend on (ring slot reuse): decoding
    // writes just the nonzero coefficients, so coef must start zeroed;
    // nz77/px_bottom/px_right/valid are unconditionally overwritten below
    // and in finalize_block_pixels. A full BlockState{} assignment would
    // memset twice as many bytes once per block.
    bs.coef.fill(0);
    bs.valid = false;

    Neighbors nb;
    if (by > 0 && prev_row[bx].valid) nb.above = &prev_row[bx];
    if (bx > 0 && cur_row[bx - 1].valid) nb.left = &cur_row[bx - 1];
    if (by > 0 && bx > 0 && prev_row[bx - 1].valid) {
      nb.above_left = &prev_row[bx - 1];
    }

    // Branch-free neighbour magnitude: absent neighbours read from a shared
    // all-zero block, so the per-coefficient accessor (called for every
    // 7x7 and edge coefficient) has no null checks. The Neighbors struct
    // keeps real nulls — Lakhani and the DC gradient must distinguish
    // "absent" from "zero".
    static const BlockState kZeroBlock{};
    const std::int16_t* mag_a =
        nb.above != nullptr ? nb.above->coef.data() : kZeroBlock.coef.data();
    const std::int16_t* mag_l =
        nb.left != nullptr ? nb.left->coef.data() : kZeroBlock.coef.data();
    const std::int16_t* mag_al = nb.above_left != nullptr
                                     ? nb.above_left->coef.data()
                                     : kZeroBlock.coef.data();
    auto wmag = [mag_a, mag_l, mag_al](int nat) -> std::uint32_t {
      int a = mag_a[nat] < 0 ? -mag_a[nat] : mag_a[nat];
      int l = mag_l[nat] < 0 ? -mag_l[nat] : mag_l[nat];
      int al = mag_al[nat] < 0 ? -mag_al[nat] : mag_al[nat];
      return static_cast<std::uint32_t>(13 * a + 13 * l + 6 * al) / 32u;
    };

    std::int16_t* blk = bs.coef.data();

    const auto& order =
        opts_.zigzag_77 ? interior77().zigzag_order : interior77().raster_order;

    // ---- (1) number of non-zero 7x7 coefficients (§A.2.1) ----
    int na = nb.above != nullptr ? nb.above->nz77 : 0;
    int nl = nb.left != nullptr ? nb.left->nz77 : 0;
    int nz_ctx = nz_count_bucket((na + nl) / 2);
    int nz = static_cast<int>(
        coding::code_tree(ops_, km.nz77.at(nz_ctx).row(), 6, 0));
    if (nz > kNum77) nz = kNum77;  // 6 bits can express up to 63
    bs.nz77 = static_cast<std::uint8_t>(nz);

    // ---- (2) 7x7 interior values, most-active first (zigzag) ----
    int remaining = nz;
    for (int i = 0; i < kNum77 && remaining > 0; ++i) {
      int nat = order[i];
      int avg_b = magnitude_bucket(wmag(nat));
      int rem_b = nz_count_bucket(remaining);
      Coef77Bins& cb = km.c77.at(i).at(avg_b);
      std::int32_t v = coding::code_value(ops_, cb.exp_row(rem_b), &cb.sign,
                                          cb.res.data(), kAcMaxBits, 0);
      blk[nat] = static_cast<std::int16_t>(v);
      if (v != 0) --remaining;
    }

    // ---- (3) edges: 7x1 column (left-predicted), 1x7 row (above-) ----
    code_edge(km, nb, blk, q, wmag, ci, /*orientation=*/0, nz);
    code_edge(km, nb, blk, q, wmag, ci, /*orientation=*/1, nz);

    // ---- (4) DC, last (§A.2.3) ----
    std::int32_t px_ac[64];
    DcPrediction pred;
    if (opts_.dc_gradient) {
      ac_only_pixels(blk, q, px_ac);
      pred = predict_dc_gradient(nb, px_ac, q);
    } else {
      pred = predict_dc_simple(nb, q);
    }
    if (pred.predicted_dc > 2047) pred.predicted_dc = 2047;
    if (pred.predicted_dc < -2048) pred.predicted_dc = -2048;
    int conf = confidence_bucket(pred.spread);
    ValueBins<kDcDeltaBits>& db = km.dc.at(conf);
    std::int32_t delta = coding::code_value(ops_, db.exp.data(), &db.sign,
                                            db.res.data(), kDcDeltaBits, 0);
    std::int32_t dc = pred.predicted_dc + delta;
    if (dc > 2047) dc = 2047;
    if (dc < -2048) dc = -2048;
    blk[0] = static_cast<std::int16_t>(dc);

    // ---- (5) finalize ring state for the blocks to our right/below ----
    if (!opts_.dc_gradient) ac_only_pixels(blk, q, px_ac);
    finalize_block_pixels(bs, px_ac, q);
  }

  template <typename WMag>
  void code_edge(KindModel& km, const Neighbors& nb, std::int16_t* blk,
                 const std::uint16_t* q, const WMag& wmag, int ci,
                 int orientation, int nz77v) {
    // orientation 0: F[u][0], predicted from the left block;
    // orientation 1: F[0][v], predicted from the above block.
    const BlockState* neighbor = orientation == 0 ? nb.left : nb.above;

    int ctx = nz_count_bucket(nz77v);
    if (ctx > 7) ctx = 7;
    int count = static_cast<int>(coding::code_tree(
        ops_, km.edge_nz.at(orientation).at(ctx).row(), 3, 0));

    int remaining = count;
    for (int i = 1; i < 8 && remaining > 0; ++i) {
      int nat = orientation == 0 ? i * 8 : i;
      int pb;
      if (opts_.lakhani_edges) {
        pb = lakhani_pred_bucket(
            edge_tables_[static_cast<std::size_t>(ci)], orientation, i, blk,
            neighbor != nullptr ? neighbor->coef.data() : nullptr, q);
      } else {
        std::int32_t predicted = avg_neighbor_value(nb, nat);
        if (predicted > 1023) predicted = 1023;
        if (predicted < -1023) predicted = -1023;
        pb = signed_pred_bucket(predicted);
      }
      int mb = magnitude_bucket(wmag(nat));
      if (mb > 3) mb = 3;
      EdgeBins& eb = km.edge.at(orientation).at(i - 1).at(pb);
      std::int32_t v = coding::code_value(ops_, eb.exp_row(mb), &eb.sign,
                                          eb.res_row(mb), kAcMaxBits, 0);
      blk[nat] = static_cast<std::int16_t>(v);
      if (v != 0) --remaining;
    }
  }

  // ---- encode-side context-plane pipeline ----------------------------------
  //
  // Stage 2+3 of the staged encode (stage 1 is the fused-refill scan
  // parse): precompute_mcu_row resolves every bucket a block's coding
  // needs from ground truth (SIMD kernels for the bulk work), then
  // code_block_plane feeds the BoolEncoder with zero context derivation on
  // the serial chain. Every plane field replicates the decoder's per-block
  // derivation (code_block) on the same inputs — the decoder's rings hold
  // exactly the truth the plane reads — which every round trip checks and
  // tests/context_plane_test pins by container digest.

  void code_mcu_row_plane(int my, const jpegfmt::CoeffImage& source) {
    const auto& fr = jf_.frame;
    const jpegfmt::simd::ContextKernels kernels =
        jpegfmt::simd::context_kernels();
    precompute_mcu_row(*plane_, jf_, source, my, plane_row_coded_,
                       edge_tables_.data(), opts_, kernels);
    // Serial coder loop, exact MCU interleaving order (chroma components
    // share adaptive state, so the order is part of the format).
    for (int mx = 0; mx < fr.mcus_x; ++mx) {
      for (int ci = 0; ci < fr.ncomp(); ++ci) {
        const auto& comp = fr.comps[ci];
        ComponentPlane& cp = plane_->comps[static_cast<std::size_t>(ci)];
        const auto& cc = source.comps[static_cast<std::size_t>(ci)];
        for (int sy = 0; sy < comp.v_samp; ++sy) {
          for (int sx = 0; sx < comp.h_samp; ++sx) {
            int bx = fr.ncomp() == 1 ? mx : mx * comp.h_samp + sx;
            int by = fr.ncomp() == 1 ? my : my * comp.v_samp + sy;
            std::size_t slot = static_cast<std::size_t>(sy) * cc.width_blocks +
                               static_cast<std::size_t>(bx);
            code_block_plane(ci, cp.ctx[slot], cp.mag.data() + slot * 64,
                             cc.block(bx, by));
          }
        }
      }
    }
  }

  void code_block_plane(int ci, const BlockCtx& bc, const std::uint8_t* mag,
                        const std::int16_t* truth) {
    static_assert(Ops::kEncoding, "plane path is encode-only");
    KindModel& km = pm_.for_component(ci);
    const auto& order =
        opts_.zigzag_77 ? interior77().zigzag_order : interior77().raster_order;

    std::uint64_t mark = tally_ != nullptr ? ops_.enc->bytes_so_far() : 0;

    // ---- (1) number of non-zero 7x7 coefficients (§A.2.1) ----
    coding::code_tree(ops_, km.nz77.at(bc.nz_ctx).row(), 6, bc.nz77);

    // ---- (2) 7x7 interior values, most-active first ----
    int remaining = bc.nz77;
    for (int i = 0; i < kNum77 && remaining > 0; ++i) {
      int nat = order[i];
      Coef77Bins& cb = km.c77.at(i).at(mag[nat]);
      coding::code_value(ops_, cb.exp_row(nz_count_bucket(remaining)),
                         &cb.sign, cb.res.data(), kAcMaxBits, truth[nat]);
      remaining -= truth[nat] != 0;
    }

    if (tally_ != nullptr) {
      std::uint64_t now = ops_.enc->bytes_so_far();
      tally_->bytes_77 += now - mark;
      mark = now;
    }

    // ---- (3) edges: 7x1 column, 1x7 row ----
    for (int orientation = 0; orientation < 2; ++orientation) {
      coding::code_tree(ops_, km.edge_nz.at(orientation).at(bc.edge_ctx).row(),
                        3, bc.edge_count[orientation]);
      int rem = bc.edge_count[orientation];
      for (int i = 1; i < 8 && rem > 0; ++i) {
        int nat = orientation == 0 ? i * 8 : i;
        int mb = mag[nat];
        if (mb > 3) mb = 3;
        EdgeBins& eb =
            km.edge.at(orientation).at(i - 1).at(bc.pb[orientation][i]);
        coding::code_value(ops_, eb.exp_row(mb), &eb.sign, eb.res_row(mb),
                           kAcMaxBits, truth[nat]);
        rem -= truth[nat] != 0;
      }
    }

    if (tally_ != nullptr) {
      std::uint64_t now = ops_.enc->bytes_so_far();
      tally_->bytes_edge += now - mark;
      mark = now;
    }

    // ---- (4) DC, last (§A.2.3) ----
    ValueBins<kDcDeltaBits>& db = km.dc.at(bc.dc_conf);
    coding::code_value(ops_, db.exp.data(), &db.sign, db.res.data(),
                       kDcDeltaBits, truth[0] - bc.dc_pred);

    if (tally_ != nullptr) tally_->bytes_dc += ops_.enc->bytes_so_far() - mark;
  }

  Ops ops_;
  ProbabilityModel& pm_;
  const jpegfmt::JpegFile& jf_;
  ModelOptions opts_;
  std::array<EdgeTables, 4> edge_tables_{};
  SectionTally* tally_ = nullptr;
  // Two block rows of context per component, indexed by (by & 1). Points at
  // caller-provided scratch when available, at own_rings_ otherwise.
  SegmentRings own_rings_;
  SegmentRings* rings_;
  // Encode-side context plane (attach_plane) and whether any MCU row was
  // coded since construction (the first row's blocks have no "above"
  // context).
  ContextPlane* plane_ = nullptr;
  bool plane_row_coded_ = false;
};

}  // namespace lepton::model

// Symmetric encode/decode operations over adaptive branches.
//
// Lepton's model logic must be written exactly once: any drift between the
// encoder's and decoder's view of a context is a correctness bug of the
// worst kind (silent corruption caught only by round-trip tests, §5.2).
// All model code is therefore templated over an Ops policy; EncodeOps
// writes bits it is told, DecodeOps returns bits from the stream, and both
// update the branch identically.
#pragma once

#include <bit>
#include <cstdint>

#include "coding/bool_coder.h"
#include "coding/branch.h"

namespace lepton::coding {

struct EncodeOps {
  static constexpr bool kEncoding = true;
  BoolEncoder* enc;

  // Codes `bit` under `b` and returns it.
  bool code_bit(Branch& b, bool bit) {
    enc->put(bit, b.prob_zero());
    b.record(bit);
    return bit;
  }

  // Codes `count` raw bits in one batched call (no model state) and
  // returns them. The fast path for near-uniform bit runs.
  std::uint32_t code_literal(std::uint32_t bits, int count) {
    enc->put_literal(bits, count);
    return bits;
  }
};

struct DecodeOps {
  static constexpr bool kEncoding = false;
  BoolDecoder* dec;

  // Ignores the hint and returns the decoded bit.
  bool code_bit(Branch& b, bool /*hint*/) {
    bool bit = dec->get(b.prob_zero());
    b.record(bit);
    return bit;
  }

  // Ignores the hint and returns `count` decoded raw bits.
  std::uint32_t code_literal(std::uint32_t /*hint*/, int count) {
    return dec->get_literal(count);
  }
};

// Unary-exponent / sign / residual integer coding (the paper's Exp-Golomb
// scheme, §A.2): exponent e = bit-length of |v| coded as unary over
// per-position branches, then a sign bit, then the e-1 bits below the
// implicit leading 1. The top residual bit stays adaptive (it still
// carries structure); the bits below it are statistically near-uniform,
// so they go through the batched literal fast path — one range
// subdivision per bit, no bin lookups, no adaptation. `exp_branches` must
// hold at least `max_bits` branches, `res_branches` at least
// `max_bits - 1`.
//
// This template is the only implementation, on both sides: encode and
// decode walk the same per-bit chain. A prepared-chunk decode of the unary
// exponent measured slower than this per-bit walk (DESIGN.md "Speculative
// `code_value` decode"), so code_value has no decode-side overload.
template <typename Ops>
std::int32_t code_value(Ops& ops, Branch* exp_branches, Branch* sign_branch,
                        Branch* res_branches, int max_bits,
                        std::int32_t v_if_encoding) {
  int target_e = 0;
  if constexpr (Ops::kEncoding) {
    std::uint32_t a = v_if_encoding < 0
                          ? static_cast<std::uint32_t>(-v_if_encoding)
                          : static_cast<std::uint32_t>(v_if_encoding);
    target_e = std::bit_width(a);  // one instruction, not a shift loop
  }
  int e = 0;
  while (e < max_bits) {
    bool more = ops.code_bit(exp_branches[e], e < target_e);
    if (!more) break;
    ++e;
  }
  if (e == 0) return 0;

  bool negative = ops.code_bit(*sign_branch, v_if_encoding < 0);

  std::uint32_t mag = 1;  // implicit leading 1
  std::uint32_t abs_v = v_if_encoding < 0
                            ? static_cast<std::uint32_t>(-v_if_encoding)
                            : static_cast<std::uint32_t>(v_if_encoding);
  if (e >= 2) {
    int top = e - 2;  // highest residual bit: adaptive
    bool bit = ops.code_bit(res_branches[top], (abs_v >> top) & 1u);
    mag = (mag << 1) | (bit ? 1u : 0u);
    if (top > 0) {  // remaining low bits: batched raw literals
      std::uint32_t low = ops.code_literal(abs_v & ((1u << top) - 1u), top);
      mag = (mag << top) | low;
    }
  }
  auto result = static_cast<std::int32_t>(mag);
  return negative ? -result : result;
}

// Fixed-width binary-tree coding of a value in [0, 2^bits): each node of
// the prefix tree has its own branch (the paper's "bin for each bit is
// further indexed by the previously decoded bits", §A.2.1).
// `tree_branches` must hold at least 2^bits entries.
template <typename Ops>
std::uint32_t code_tree(Ops& ops, Branch* tree_branches, int bits,
                        std::uint32_t v_if_encoding) {
  std::uint32_t node = 1;  // heap-style index; value bits appended below
  for (int i = bits - 1; i >= 0; --i) {
    bool bit = ops.code_bit(tree_branches[node],
                            (v_if_encoding >> i) & 1u);
    node = (node << 1) | (bit ? 1u : 0u);
  }
  return node - (1u << bits);
}

// ---- Speculative decode-side overload --------------------------------------
//
// Overload resolution picks this one (non-template beats template) whenever
// the model code instantiates with DecodeOps, so SegmentCodec's decode loop
// gets it without any call-site changes; EncodeOps — and any explicit
// `code_tree<DecodeOps>` reference call — still uses the template above,
// which tests/hotloop_test.cpp fuzzes it against.
//
// Two levers, both bit-exact (identical arithmetic, identical branch-update
// sequence — only buffering and instruction scheduling change):
//  * batched renormalization: one adaptive bit consumes at most one stream
//    byte, so a chain of n bits needs one BoolDecoder::prepare(n) instead of
//    n refill checks, and each bit resolves branchlessly (get_prepared);
//  * split-table speculation: while the range split for the current tree
//    node resolves, both candidate child probabilities are already loaded
//    (they sit on the same cache line in the clustered model layout), so
//    the dependent bin lookup is off the critical path — the next split is
//    ready the moment the current bit's compare retires.

// Tree decode with both-child probability preload. Runs in prepared chunks
// of up to 6 bits (the decoder window's ceiling), so any tree depth works —
// the model's trees are 3/6 bits, the byte-arith baseline's are 8.
inline std::uint32_t code_tree(DecodeOps& ops, Branch* tree_branches, int bits,
                               std::uint32_t /*hint*/) {
  BoolDecoder* dec = ops.dec;
  std::uint32_t node = 1;
  std::uint8_t p = tree_branches[1].prob_zero();
  int i = bits - 1;
  while (i >= 0) {
    int chunk = i + 1;
    if (chunk > 6) chunk = 6;
    dec->prepare(chunk);
    for (int j = 0; j < chunk; ++j, --i) {
      // Children of every non-final level stay inside the 2^bits-entry row;
      // the last level has no children to preload.
      std::uint8_t p0 = 0, p1 = 0;
      if (i > 0) {
        p0 = tree_branches[2 * node].prob_zero();
        p1 = tree_branches[2 * node + 1].prob_zero();
      }
      bool bit = dec->get_prepared(p);
      tree_branches[node].record(bit);
      node = (node << 1) | (bit ? 1u : 0u);
      p = bit ? p1 : p0;
    }
  }
  return node - (1u << bits);
}

}  // namespace lepton::coding

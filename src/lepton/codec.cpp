#include "lepton/codec.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "jpeg/parser.h"
#include "jpeg/scan_decoder.h"
#include "jpeg/scan_encoder.h"
#include "lepton/context.h"
#include "lepton/plan.h"
#include "lepton/session.h"
#include "model/block_codec.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"
#include "util/tracked_memory.h"

namespace lepton {
namespace {

using util::ExitCode;

// Decode working-set estimate for the §6.2 ">24 MiB mem decode" gate: one
// model copy plus two context rows per component, per segment.
std::size_t decode_working_set(const jpegfmt::JpegFile& hdr,
                               std::size_t segments) {
  std::size_t rings = 0;
  for (const auto& comp : hdr.frame.comps) {
    rings += static_cast<std::size_t>(comp.width_blocks) * 2 *
             sizeof(model::BlockState);
  }
  return segments * (sizeof(model::ProbabilityModel) + rings);
}

}  // namespace

int threads_for_size(std::size_t bytes) {
  if (bytes < 128u << 10) return 1;
  if (bytes < 512u << 10) return 2;
  if (bytes < 3u << 20) return 4;
  return 8;
}

namespace core {

std::vector<std::uint8_t> encode_container(const jpegfmt::JpegFile& jf,
                                           const jpegfmt::ScanDecodeResult& dec,
                                           const ContainerPlan& plan,
                                           const EncodeOptions& opts,
                                           model::SectionTally* tally,
                                           CodecContext& ctx) {
  ContainerHeader h;
  h.is_chunk = plan.is_chunk;
  h.file_total_size = plan.file_total_size;
  h.chunk_off = plan.chunk_off;
  h.chunk_len = plan.chunk_len;
  h.scan_begin_abs = jf.scan_begin;
  h.pad_bit = dec.pad_bit;
  h.rst_count = dec.rst_count;
  h.model = opts.model;
  h.jpeg_header.assign(jf.header_bytes().begin(), jf.header_bytes().end());
  h.prefix_off = plan.prefix_off;
  h.prefix_len = plan.prefix_len;
  h.suffix = plan.suffix;
  h.segments = plan.segments;

  const RunControl* rc = opts.run;
  const std::size_t nseg = plan.segments.size();
  // One scratch lease per segment, held until the container is serialized:
  // each segment's arithmetic output lives in its scratch buffer and is
  // passed to the serializer as a view.
  std::vector<CodecContext::ScratchLease> leases;
  leases.reserve(nseg);
  for (std::size_t i = 0; i < nseg; ++i) {
    leases.push_back(ctx.acquire_scratch());
  }
  std::vector<std::span<const std::uint8_t>> arith(nseg);
  std::atomic<int> error_code{-1};
  auto encode_segment = [&](int i, bool tripped) {
    try {
      if (tripped) {
        // The session's deadline/cancel tripped before this segment started
        // (sampled at dispatch in CodecContext::parallel_run): do no work.
        throw jpegfmt::ParseError(ExitCode::kTimeout,
                                  "session cancelled before segment start");
      }
      const auto& seg = plan.segments[static_cast<std::size_t>(i)];
      CodecScratch& scratch = *leases[static_cast<std::size_t>(i)];
      coding::BoolEncoder enc(&scratch.arith_buffer());
      model::SegmentCodec<coding::EncodeOps> codec(coding::EncodeOps{&enc},
                                                   scratch.fresh_model(), jf,
                                                   opts.model,
                                                   &scratch.rings());
      codec.attach_plane(&scratch.plane());
      if (tally != nullptr && nseg == 1) {
        codec.set_tally(tally);
      }
      for (std::uint32_t row = seg.start_row; row < seg.end_row; ++row) {
        if (rc != nullptr && rc->tripped()) {
          throw jpegfmt::ParseError(ExitCode::kTimeout,
                                    "session deadline tripped mid-encode");
        }
        codec.code_mcu_row(static_cast<int>(row), &dec.coeffs);
      }
      enc.finish_into_buffer();
      arith[static_cast<std::size_t>(i)] = {scratch.arith_buffer().data(),
                                            scratch.arith_buffer().size()};
    } catch (const jpegfmt::ParseError& e) {
      error_code.store(static_cast<int>(e.code()));
    } catch (...) {
      error_code.store(static_cast<int>(ExitCode::kImpossible));
    }
  };
  ctx.parallel_run(static_cast<int>(nseg), rc, encode_segment);
  if (error_code.load() >= 0) {
    throw jpegfmt::ParseError(static_cast<ExitCode>(error_code.load()),
                              "segment encode failed");
  }
  return serialize_container(h, arith);
}

jpegfmt::JpegFile validate_container_decode(const ContainerHeader& h) {
  jpegfmt::JpegFile hdr = jpegfmt::parse_jpeg_header(
      {h.jpeg_header.data(), h.jpeg_header.size()});

  // Structural validation against the (attacker-controlled) header.
  for (const auto& seg : h.segments) {
    if (seg.end_row > static_cast<std::uint32_t>(hdr.frame.mcus_y)) {
      throw jpegfmt::ParseError(ExitCode::kNotAnImage, "segment row range");
    }
  }
  // §6.2 ">24 MiB mem decode" gate. The working set counts every segment,
  // but the per-thread budget applies to the §5.4 maximum of 16 threads at
  // most — a hostile header cannot scale the allowance (and with it the
  // scratch it makes us allocate) by declaring more segments.
  const std::size_t units = std::max<std::size_t>(h.segments.size(), 1);
  // Failpoint "codec.mem_gate": a fired schedule shrinks the budget to
  // zero — every allocation-gated decode then classifies kMemLimitDecode,
  // exercising the §6.2 refusal without a hostile container.
  const bool gate_tripped =
      util::failpoint::armed() &&
      util::failpoint::hit("codec.mem_gate").fired();
  if (gate_tripped ||
      decode_working_set(hdr, units) >
          (24ull << 20) * std::min<std::size_t>(units, 16)) {
    throw jpegfmt::ParseError(ExitCode::kMemLimitDecode,
                              "decode working set exceeds budget");
  }
  return hdr;
}

util::ExitCode decode_one_segment(const ContainerHeader& h,
                                  const jpegfmt::JpegFile& hdr,
                                  std::span<const std::uint8_t> arith,
                                  std::size_t i, CodecContext& ctx,
                                  OrderedEmitter& em, DecodeRunFlags* flags,
                                  const RunControl* rc) {
  ExitCode code = ExitCode::kSuccess;
  try {
    const auto& seg = h.segments[i];
    // Leased inside the task (unlike encode, which must keep every
    // segment's output buffer alive until serialization): live scratch
    // is bounded by pool concurrency, not by the attacker-controlled
    // segment count.
    CodecContext::ScratchLease lease = ctx.acquire_scratch();
    CodecScratch& scratch = *lease;
    // Segments run concurrently, and all but the live one buffer their
    // whole output: size that buffer once, not by doubling. out_len comes
    // from the header, so the size is capped at twice the segment's stream
    // (real segments produce ~1.3x, §4's 22% savings): a hostile header
    // cannot reserve more than twice the bytes it actually sent.
    em.reserve(i, seg.prepend.size() +
                      static_cast<std::size_t>(std::min<std::uint64_t>(
                          seg.out_len, 2 * std::uint64_t{arith.size()})));
    if (!seg.prepend.empty()) {
      em.submit(i, {seg.prepend.data(), seg.prepend.size()});
    }
    jpegfmt::HuffmanHandover ho = seg.handover;
    std::uint64_t produced = 0;
    jpegfmt::ScanEncodeParams p;
    p.pad_bit = h.pad_bit;
    p.rst_count_limit = h.rst_count;
    p.final_segment = false;
    std::vector<std::uint8_t>& row_bytes = scratch.row_buffer();
    coding::BoolDecoder bd({arith.data(), arith.size()});
    model::SegmentCodec<coding::DecodeOps> codec(coding::DecodeOps{&bd},
                                                 scratch.fresh_model(), hdr,
                                                 h.model, &scratch.rings());
    // Direct lambda into the template entry point: the per-block ring
    // lookup inlines into the re-encode MCU loop (an std::function there
    // is an indirect call per block of every decode).
    auto source = [&codec](int comp, int bx, int by) {
      return codec.row_block(comp, bx, by);
    };
    auto record = [&flags, &bd] {
      if (flags == nullptr) return;
      if (bd.overran()) flags->overran.store(true);
      if (!bd.exhausted()) flags->leftover.store(true);
      flags->payload_bytes.fetch_add(bd.available());
      flags->payload_consumed.fetch_add(bd.consumed());
    };
    try {
      for (std::uint32_t row = seg.start_row;
           row < seg.end_row && produced < seg.out_len; ++row) {
        if (rc != nullptr && rc->tripped()) {
          throw jpegfmt::ParseError(ExitCode::kTimeout,
                                    "session deadline tripped mid-decode");
        }
        codec.code_mcu_row(static_cast<int>(row), nullptr);
        p.start_mcu_row = static_cast<int>(row);
        p.end_mcu_row = static_cast<int>(row) + 1;
        p.handover = ho;
        jpegfmt::encode_scan_rows_with(hdr, source, p, &ho, &row_bytes);
        std::size_t take = row_bytes.size();
        if (produced + take > seg.out_len) {
          take = static_cast<std::size_t>(seg.out_len - produced);
        }
        em.submit(i, {row_bytes.data(), take});
        produced += take;
      }
    } catch (...) {
      // Re-encoding garbage rows (truncated/hostile streams) can throw
      // mid-loop; the consumption facts must still reach the validation
      // layers, which use them to classify the truncation.
      record();
      throw;
    }
    record();
    if (produced != seg.out_len) {
      throw jpegfmt::ParseError(ExitCode::kNotAnImage,
                                "segment produced wrong byte count");
    }
  } catch (const jpegfmt::ParseError& e) {
    code = e.code();
  } catch (...) {
    code = ExitCode::kImpossible;
  }
  em.complete(i);
  return code;
}

SegmentRunner::SegmentRunner(const ContainerHeader& h,
                             const jpegfmt::JpegFile& hdr, ByteSink& sink,
                             const DecodeOptions& opts, CodecContext& ctx,
                             DecodeRunFlags* flags)
    : h_(h),
      hdr_(hdr),
      ctx_(ctx),
      flags_(flags),
      rc_(opts.run),
      em_(sink, h.segments.size()),
      claims_(std::make_shared<Claims>(h.segments.size())),
      started_(h.segments.size(), 0),
      arith_(h.segments.size()),
      status_(h.segments.size()) {}

SegmentRunner::~SegmentRunner() {
  std::size_t dropped = 0;
  for (std::size_t seg = 0; seg < started_.size(); ++seg) {
    if (started_[seg] != 0 && claim(seg)) ++dropped;
  }
  std::unique_lock<std::mutex> lk(mu_);
  n_done_ += dropped;
  cv_.wait(lk, [this] { return n_done_ == n_started_; });
}

void SegmentRunner::start(std::size_t seg,
                          std::span<const std::uint8_t> arith) {
  started_[seg] = 1;
  arith_[seg] = arith;
  ++n_started_;
  if (ctx_.pool().size() == 0) {
    claim(seg);
    run_one(seg, tripped());
    return;
  }
  ctx_.pool().submit([claims = claims_, this, seg] {
    if (claims->taken[seg].exchange(true)) return;  // the owner took it
    run_one(seg, tripped());
  });
}

ExitCode SegmentRunner::run_rest(
    const std::vector<std::vector<std::uint8_t>>& arith) {
  for (std::size_t seg = 0; seg < started_.size(); ++seg) {
    if (started_[seg] != 0) continue;
    started_[seg] = 1;
    arith_[seg] = {arith[seg].data(), arith[seg].size()};
    ++n_started_;
  }
  wait();
  return settled_failure();
}

void SegmentRunner::wait() {
  std::vector<std::size_t> todo;
  for (std::size_t seg = 0; seg < started_.size(); ++seg) {
    if (started_[seg] != 0 && !claims_->taken[seg].load()) todo.push_back(seg);
  }
  ctx_.parallel_run(static_cast<int>(todo.size()), rc_,
                    [&](int k, bool tripped) {
                      std::size_t seg = todo[static_cast<std::size_t>(k)];
                      if (claim(seg)) run_one(seg, tripped);
                    });
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return n_done_ == n_started_; });
}

ExitCode SegmentRunner::settled_failure() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (settled_ == status_.size()) return ExitCode::kSuccess;
  return status_[settled_].value_or(ExitCode::kSuccess);
}

void SegmentRunner::run_one(std::size_t seg, bool tripped) {
  ExitCode code;
  if (tripped) {
    // Sampled at dispatch: a tripped session's unstarted segments are
    // classified without leasing scratch or touching the payload.
    code = ExitCode::kTimeout;
    em_.complete(seg);
  } else {
    code = decode_one_segment(h_, hdr_, arith_[seg], seg, ctx_, em_, flags_,
                              rc_);
  }
  // Notified under the lock: the owner may destroy the runner the moment
  // it sees the last segment done.
  std::lock_guard<std::mutex> lk(mu_);
  status_[seg] = code;
  ++n_done_;
  while (settled_ < status_.size() &&
         status_[settled_] == ExitCode::kSuccess) {
    ++settled_;
  }
  cv_.notify_all();
}

}  // namespace core

// ---- one-shot wrappers ------------------------------------------------------
//
// Every whole-buffer entry point below is a feed-everything wrapper over the
// streaming sessions (session.h): one codec driver, two calling conventions.

Result encode_jpeg(std::span<const std::uint8_t> jpeg,
                   const EncodeOptions& opts) {
  return encode_jpeg(jpeg, opts, default_context());
}

Result encode_jpeg(std::span<const std::uint8_t> jpeg,
                   const EncodeOptions& opts, CodecContext& ctx) {
  EncodeSession session(opts, &ctx);
  session.feed(jpeg);
  Result r;
  VectorSink sink;
  r.code = session.finish(sink);
  r.message = session.message();
  if (r.ok()) r.data = std::move(sink.data);
  return r;
}

Result encode_jpeg_with_breakdown(std::span<const std::uint8_t> jpeg,
                                  const EncodeOptions& opts,
                                  ComponentBreakdown* breakdown) {
  if (breakdown == nullptr) return encode_jpeg(jpeg, opts);
  Result r;
  try {
    auto jf = jpegfmt::parse_jpeg(jpeg);
    auto dec = jpegfmt::decode_scan(jf);
    EncodeOptions eopts = opts;
    eopts.force_threads = 1;
    auto plan = core::plan_whole_file(jf, dec, eopts);
    model::SectionTally tally;
    r.data = core::encode_container(jf, dec, plan, eopts, &tally,
                                    default_context());
    breakdown->header_in = jf.scan_begin + (jpeg.size() - jf.trailing_begin) +
                           (jf.has_eoi ? 2 : 0) + dec.trailing_scan.size();
    // Compressed header cost ≈ container minus arithmetic payload.
    std::uint64_t arith_total =
        tally.bytes_77 + tally.bytes_edge + tally.bytes_dc;
    breakdown->header_out =
        r.data.size() > arith_total ? r.data.size() - arith_total : 0;
    breakdown->dc_in_bits = dec.stats.bits_dc;
    breakdown->dc_out_bits = tally.bytes_dc * 8;
    breakdown->ac77_in_bits =
        dec.stats.bits_ac77 + dec.stats.bits_overhead;  // EOB/ZRL ride along
    breakdown->ac77_out_bits = tally.bytes_77 * 8;
    breakdown->edge_in_bits = dec.stats.bits_edge;
    breakdown->edge_out_bits = tally.bytes_edge * 8;
  } catch (const jpegfmt::ParseError& e) {
    r.code = e.code();
    r.message = e.what();
  } catch (const std::exception& e) {
    r.code = ExitCode::kImpossible;
    r.message = e.what();
  }
  return r;
}

util::ExitCode decode_lepton(std::span<const std::uint8_t> lep, ByteSink& sink,
                             const DecodeOptions& opts) {
  return decode_lepton(lep, sink, opts, default_context(), nullptr);
}

util::ExitCode decode_lepton(std::span<const std::uint8_t> lep, ByteSink& sink,
                             const DecodeOptions& opts, CodecContext& ctx,
                             DecodeStats* stats) {
  DecodeSession session(sink, opts, &ctx);
  session.feed(lep);
  return session.finish(stats);
}

Result decode_lepton(std::span<const std::uint8_t> lep,
                     const DecodeOptions& opts) {
  Result r;
  VectorSink sink;
  r.code = decode_lepton(lep, sink, opts);
  r.data = std::move(sink.data);
  return r;
}

}  // namespace lepton

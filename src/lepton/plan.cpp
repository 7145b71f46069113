#include "lepton/plan.h"

#include <algorithm>

namespace lepton::core {
namespace {

// First MCU row whose scan byte offset is >= rel (== mcus_y when none).
std::size_t first_row_at_or_after(const jpegfmt::ScanDecodeResult& dec,
                                  std::uint64_t rel) {
  const auto& rb = dec.row_boundaries;
  auto it = std::lower_bound(
      rb.begin(), rb.end(), rel, [](const jpegfmt::RowBoundary& b,
                                    std::uint64_t v) {
        return b.handover.pos.byte_off < v;
      });
  return static_cast<std::size_t>(it - rb.begin());
}

std::uint64_t row_off(const jpegfmt::ScanDecodeResult& dec, std::size_t r,
                      std::uint64_t end_byte) {
  return r < dec.row_boundaries.size()
             ? dec.row_boundaries[r].handover.pos.byte_off
             : end_byte;
}

}  // namespace

ContainerPlan plan_byte_range(const jpegfmt::JpegFile& jf,
                              const jpegfmt::ScanDecodeResult& dec,
                              std::uint64_t begin, std::uint64_t end,
                              const EncodeOptions& opts, bool is_chunk) {
  const std::uint64_t file_size = jf.file.size();
  end = std::min(end, file_size);

  ContainerPlan plan;
  plan.is_chunk = is_chunk;
  plan.file_total_size = file_size;
  plan.chunk_off = begin;
  plan.chunk_len = end - begin;

  const std::uint64_t scan_begin = jf.scan_begin;
  const std::uint64_t end_byte = dec.end_state.pos.byte_off;  // rel to scan
  const std::uint64_t trail_abs = scan_begin + end_byte;

  // ---- verbatim prefix: the part of [begin,end) inside the header ----
  if (begin < scan_begin) {
    plan.prefix_off = begin;
    plan.prefix_len = std::min(end, scan_begin) - begin;
  }

  // ---- re-encodable scan rows ----
  std::uint64_t rel0 = begin > scan_begin ? begin - scan_begin : 0;
  std::uint64_t rel1 =
      end > scan_begin ? std::min(end - scan_begin, end_byte) : 0;
  if (rel1 > rel0) {
    std::size_t r_first = first_row_at_or_after(dec, rel0);
    std::uint64_t first_off = row_off(dec, r_first, end_byte);
    if (first_off >= rel1) {
      // The range is smaller than one MCU row: all verbatim.
      SegmentHeader seg;
      seg.start_row = seg.end_row = 0;
      seg.out_len = 0;
      auto scan = jf.scan_bytes();
      seg.prepend.assign(scan.begin() + static_cast<std::ptrdiff_t>(rel0),
                         scan.begin() + static_cast<std::ptrdiff_t>(rel1));
      plan.segments.push_back(std::move(seg));
    } else {
      std::size_t r_last = first_row_at_or_after(dec, rel1);
      // Rows [r_first, r_last) re-encode; bytes [rel0, first_off) verbatim.
      std::vector<std::uint8_t> prepend;
      if (first_off > rel0) {
        auto scan = jf.scan_bytes();
        prepend.assign(scan.begin() + static_cast<std::ptrdiff_t>(rel0),
                       scan.begin() + static_cast<std::ptrdiff_t>(first_off));
      }
      std::size_t nrows = r_last - r_first;
      int threads =
          opts.force_threads > 0
              ? opts.force_threads
              : threads_for_size(static_cast<std::size_t>(rel1 - rel0));
      // The format rejects containers above kMaxSegments; never plan one.
      if (threads > static_cast<int>(kMaxSegments)) {
        threads = static_cast<int>(kMaxSegments);
      }
      std::size_t nseg =
          std::min<std::size_t>(static_cast<std::size_t>(threads), nrows);
      for (std::size_t s = 0; s < nseg; ++s) {
        SegmentHeader seg;
        std::size_t a = r_first + nrows * s / nseg;
        std::size_t b = r_first + nrows * (s + 1) / nseg;
        seg.start_row = static_cast<std::uint32_t>(a);
        seg.end_row = static_cast<std::uint32_t>(b);
        seg.handover = dec.row_boundaries[a].handover;
        std::uint64_t seg_begin = row_off(dec, a, end_byte);
        std::uint64_t seg_end =
            s + 1 == nseg ? rel1 : row_off(dec, b, end_byte);
        seg.out_len = seg_end - seg_begin;
        if (s == 0) seg.prepend = std::move(prepend);
        plan.segments.push_back(std::move(seg));
      }
    }
  }

  // ---- verbatim suffix: trailing scan bytes, EOI, file garbage ----
  std::uint64_t suf0 = std::max(begin, trail_abs);
  if (end > suf0) {
    plan.suffix.assign(
        jf.file.begin() + static_cast<std::ptrdiff_t>(suf0),
        jf.file.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return plan;
}

ContainerPlan plan_whole_file(const jpegfmt::JpegFile& jf,
                              const jpegfmt::ScanDecodeResult& dec,
                              const EncodeOptions& opts) {
  return plan_byte_range(jf, dec, 0, jf.file.size(), opts,
                         /*is_chunk=*/false);
}

}  // namespace lepton::core

// Tests for the Lepton container format (§A.1): serialization round trips
// across segment counts (up to kMaxSegments) and payload sizes, interleaving
// behaviour, version gating (the §6.7 old-version incident), the segment
// count limit, structural fuzzing, and the SECCOMP sandbox glue (§5.1).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include "lepton/format.h"
#include "lepton/sandbox.h"
#include "util/rng.h"

namespace lc = lepton::core;
namespace jf = lepton::jpegfmt;
using lepton::util::ExitCode;

namespace {

lc::ContainerHeader sample_header(int nseg, lepton::util::Rng& rng) {
  lc::ContainerHeader h;
  h.is_chunk = nseg % 2 == 0;
  h.file_total_size = 1000000 + rng.below(1000);
  h.chunk_off = rng.below(500000);
  h.chunk_len = 4096 + rng.below(100000);
  h.scan_begin_abs = 600 + rng.below(100);
  h.pad_bit = static_cast<std::uint8_t>(rng.below(2));
  h.rst_count = static_cast<std::uint32_t>(rng.below(100));
  h.model.lakhani_edges = rng.chance(0.5);
  h.model.dc_gradient = rng.chance(0.5);
  h.model.zigzag_77 = rng.chance(0.5);
  h.jpeg_header.resize(64 + rng.below(512));
  for (auto& b : h.jpeg_header) b = static_cast<std::uint8_t>(rng.below(256));
  h.prefix_off = rng.below(h.jpeg_header.size() / 2 + 1);
  h.prefix_len = rng.below(h.jpeg_header.size() - h.prefix_off + 1);
  h.suffix.resize(rng.below(64));
  for (auto& b : h.suffix) b = static_cast<std::uint8_t>(rng.below(256));
  for (int i = 0; i < nseg; ++i) {
    lc::SegmentHeader seg;
    seg.start_row = static_cast<std::uint32_t>(i * 10);
    seg.end_row = seg.start_row + 10;
    seg.handover.pos.byte_off = rng.below(1 << 20);
    seg.handover.pos.bit_off = static_cast<int>(rng.below(8));
    seg.handover.partial_byte = static_cast<std::uint8_t>(rng.below(256));
    for (auto& dc : seg.handover.dc_pred) {
      dc = static_cast<std::int16_t>(rng.range(-2048, 2047));
    }
    seg.handover.mcus_done = static_cast<std::uint32_t>(rng.below(10000));
    seg.handover.rst_seen = static_cast<std::uint32_t>(rng.below(100));
    seg.out_len = rng.below(1 << 16);
    seg.prepend.resize(rng.below(32));
    h.segments.push_back(std::move(seg));
  }
  return h;
}

std::vector<std::vector<std::uint8_t>> sample_arith(int nseg,
                                                    lepton::util::Rng& rng) {
  std::vector<std::vector<std::uint8_t>> arith(nseg);
  for (auto& a : arith) {
    // Spread across the interleave schedule boundaries (256/4096/65536).
    a.resize(rng.below(100000));
    for (auto& b : a) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return arith;
}

}  // namespace

class FormatRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FormatRoundTrip, HeaderAndStreamsSurvive) {
  lepton::util::Rng rng(1234 + GetParam());
  auto h = sample_header(GetParam(), rng);
  auto arith = sample_arith(GetParam(), rng);
  auto bytes = lc::serialize_container(h, arith);
  ASSERT_TRUE(lc::looks_like_lepton({bytes.data(), bytes.size()}));

  auto parsed = lc::parse_container({bytes.data(), bytes.size()});
  const auto& g = parsed.header;
  EXPECT_EQ(g.is_chunk, h.is_chunk);
  EXPECT_EQ(g.file_total_size, h.file_total_size);
  EXPECT_EQ(g.chunk_off, h.chunk_off);
  EXPECT_EQ(g.chunk_len, h.chunk_len);
  EXPECT_EQ(g.scan_begin_abs, h.scan_begin_abs);
  EXPECT_EQ(g.pad_bit, h.pad_bit);
  EXPECT_EQ(g.rst_count, h.rst_count);
  EXPECT_EQ(g.model.lakhani_edges, h.model.lakhani_edges);
  EXPECT_EQ(g.model.dc_gradient, h.model.dc_gradient);
  EXPECT_EQ(g.model.zigzag_77, h.model.zigzag_77);
  EXPECT_EQ(g.jpeg_header, h.jpeg_header);
  EXPECT_EQ(g.prefix_off, h.prefix_off);
  EXPECT_EQ(g.prefix_len, h.prefix_len);
  EXPECT_EQ(g.suffix, h.suffix);
  ASSERT_EQ(g.segments.size(), h.segments.size());
  for (std::size_t i = 0; i < h.segments.size(); ++i) {
    EXPECT_EQ(g.segments[i].start_row, h.segments[i].start_row);
    EXPECT_EQ(g.segments[i].end_row, h.segments[i].end_row);
    EXPECT_EQ(g.segments[i].handover.pos.byte_off,
              h.segments[i].handover.pos.byte_off);
    EXPECT_EQ(g.segments[i].handover.pos.bit_off,
              h.segments[i].handover.pos.bit_off);
    EXPECT_EQ(g.segments[i].handover.partial_byte,
              h.segments[i].handover.partial_byte);
    EXPECT_EQ(g.segments[i].handover.dc_pred, h.segments[i].handover.dc_pred);
    EXPECT_EQ(g.segments[i].out_len, h.segments[i].out_len);
    EXPECT_EQ(g.segments[i].prepend, h.segments[i].prepend);
    EXPECT_EQ(parsed.arith[i], arith[i]);
  }
}

// 256 is kMaxSegments: the largest count a one-byte section header can
// address.
INSTANTIATE_TEST_SUITE_P(SegmentCounts, FormatRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 8, 16, 64, 256));

TEST(Format, RejectsWrongVersion) {
  // §6.7: an accidentally deployed incompatible version must fail loudly,
  // not decode garbage. Version 2 is the only one this build speaks; the
  // retired version 1 and the retired multi-lane version 3 are rejected
  // like any unknown byte, and classified from the first three bytes.
  lepton::util::Rng rng(5);
  auto h = sample_header(2, rng);
  auto arith = sample_arith(2, rng);
  auto bytes = lc::serialize_container(h, arith);
  ASSERT_EQ(bytes[2], lc::kFormatVersion);
  for (std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{3},
                           std::uint8_t{4}, std::uint8_t{99}}) {
    auto mutated = bytes;
    mutated[2] = bad;  // version byte
    try {
      (void)lc::parse_container({mutated.data(), mutated.size()});
      ADD_FAILURE() << "version " << int(bad) << " parsed";
    } catch (const jf::ParseError& e) {
      EXPECT_EQ(e.code(), ExitCode::kUnsupportedJpeg) << "version " << int(bad);
    }
    lc::ContainerParser parser;
    EXPECT_EQ(parser.feed({mutated.data(), 3}), ExitCode::kUnsupportedJpeg)
        << "version " << int(bad);
  }
}

TEST(Format, RejectsMoreSegmentsThanSectionsAddress) {
  // A section header names its segment in one byte, so a container cannot
  // carry more than kMaxSegments (256) segments; a header declaring more is
  // structurally corrupt, rejected at the outer header.
  lepton::util::Rng rng(8);
  const int n = static_cast<int>(lc::kMaxSegments) + 1;
  auto h = sample_header(n, rng);
  std::vector<std::vector<std::uint8_t>> arith(static_cast<std::size_t>(n));
  auto bytes = lc::serialize_container(h, arith);
  lc::ContainerParser parser;
  EXPECT_EQ(parser.feed({bytes.data(), bytes.size()}), ExitCode::kNotAnImage);
  EXPECT_FALSE(parser.header_ready());
  try {
    (void)lc::parse_container({bytes.data(), bytes.size()});
    ADD_FAILURE() << n << " segments parsed";
  } catch (const jf::ParseError& e) {
    EXPECT_EQ(e.code(), ExitCode::kNotAnImage);
  }
}

TEST(Format, RejectsBadMagicAndTruncation) {
  lepton::util::Rng rng(6);
  auto h = sample_header(1, rng);
  auto arith = sample_arith(1, rng);
  auto bytes = lc::serialize_container(h, arith);
  auto bad = bytes;
  bad[0] = 0x00;
  EXPECT_THROW(lc::parse_container({bad.data(), bad.size()}), jf::ParseError);
  for (std::size_t cut : {std::size_t{3}, bytes.size() / 4, bytes.size() - 1}) {
    EXPECT_THROW(lc::parse_container({bytes.data(), cut}), jf::ParseError);
  }
}

TEST(Format, StructuralFuzzNeverCrashes) {
  lepton::util::Rng rng(7);
  auto h = sample_header(4, rng);
  auto arith = sample_arith(4, rng);
  auto bytes = lc::serialize_container(h, arith);
  for (int trial = 0; trial < 500; ++trial) {
    auto mutated = bytes;
    for (int i = 0; i < 8; ++i) {
      mutated[rng.below(mutated.size())] =
          static_cast<std::uint8_t>(rng.below(256));
    }
    try {
      (void)lc::parse_container({mutated.data(), mutated.size()});
    } catch (const jf::ParseError&) {
      // classified rejection is the expected outcome
    }
  }
  SUCCEED();
}

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LEPTON_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LEPTON_UNDER_SANITIZER 1
#endif

TEST(Sandbox, StrictModeAllowsOnlyReadWriteExit) {
  if (!lc::sandbox_supported()) GTEST_SKIP() << "no seccomp on this platform";
#ifdef LEPTON_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer runtimes issue syscalls (mmap, futex) that "
                  "strict seccomp SIGKILLs; the sandbox is exercised by the "
                  "plain builds";
#endif
  // Run in a forked child: after entering strict mode, write() must work
  // and exit() must terminate cleanly. (Anything else would SIGKILL the
  // child, which waitpid would report.)
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!lc::enter_strict_sandbox()) _exit(42);  // not permitted here: skip
    const char ok[] = "ok";
    ssize_t n = write(pipefd[1], ok, 2);
    // _exit() would issue exit_group, which strict mode SIGKILLs; only the
    // raw exit syscall is on the allowlist.
    lc::sandbox_exit(n == 2 ? 0 : 1);
  }
  close(pipefd[1]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  char buf[4] = {};
  ssize_t n = read(pipefd[0], buf, sizeof(buf));
  close(pipefd[0]);
  if (WIFEXITED(status) && WEXITSTATUS(status) == 42) {
    GTEST_SKIP() << "seccomp strict not permitted in this environment";
  }
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(n, 2);
  EXPECT_EQ(buf[0], 'o');
}

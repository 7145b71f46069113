// Unit tests for the foundation module: bit I/O (including handover resume),
// serialization, statistics, MD5 vectors and the loop-form oracle, FNV-1a
// vectors, tracked memory, RNG determinism, the bounded parallel-for, and
// whole-file reads.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>

#include "md5_reference.h"
#include "util/bitio.h"
#include "util/exit_codes.h"
#include "util/fileio.h"
#include "util/fnv1a.h"
#include "util/md5.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/tracked_memory.h"
#include "util/zlib_util.h"

namespace lu = lepton::util;

TEST(BitIo, RoundTripBits) {
  lu::BitWriter w;
  w.put_bits(0b1011, 4);
  w.put_bits(0b0, 1);
  w.put_bits(0b11111111111, 11);
  w.pad_to_byte(0);
  lu::BitReader r({w.bytes().data(), w.bytes().size()});
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_EQ(r.get_bits(1), 0b0u);
  EXPECT_EQ(r.get_bits(11), 0b11111111111u);
  EXPECT_TRUE(r.ok());
}

TEST(BitIo, HandoverResumeConcatenatesExactly) {
  // Write a stream in one piece, then in two pieces split mid-byte using the
  // partial-byte handover. The concatenation must be identical — this is the
  // core mechanism of the paper's Huffman handover words.
  lu::BitWriter whole;
  for (int i = 0; i < 100; ++i) whole.put_bits(static_cast<std::uint32_t>(i), 7);
  whole.pad_to_byte(1);

  lu::BitWriter first;
  for (int i = 0; i < 37; ++i) first.put_bits(static_cast<std::uint32_t>(i), 7);
  std::uint8_t partial = first.partial_byte();
  int off = first.bit_offset();
  lu::BitWriter second(partial, off);
  for (int i = 37; i < 100; ++i) second.put_bits(static_cast<std::uint32_t>(i), 7);
  second.pad_to_byte(1);

  std::vector<std::uint8_t> cat = first.bytes();
  cat.insert(cat.end(), second.bytes().begin(), second.bytes().end());
  EXPECT_EQ(cat, whole.bytes());
}

TEST(BitIo, ReaderReportsTruncation) {
  std::uint8_t one = 0xAB;
  lu::BitReader r({&one, 1});
  r.get_bits(8);
  EXPECT_TRUE(r.ok());
  r.get_bit();
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, RoundTripAllWidths) {
  lu::Serializer s;
  s.u8(0xAB);
  s.u16(0xBEEF);
  s.u32(0xDEADBEEFu);
  s.u64(0x0123456789ABCDEFull);
  s.i16(-12345);
  s.i32(-123456789);
  std::vector<std::uint8_t> payload = {1, 2, 3};
  s.blob({payload.data(), payload.size()});

  lu::Deserializer d({s.data().data(), s.data().size()});
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u16(), 0xBEEF);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.i16(), -12345);
  EXPECT_EQ(d.i32(), -123456789);
  EXPECT_EQ(d.blob(), payload);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.remaining(), 0u);
}

TEST(Serialize, DeserializerRejectsOverrun) {
  std::uint8_t buf[2] = {1, 2};
  lu::Deserializer d({buf, 2});
  d.u32();
  EXPECT_FALSE(d.ok());
}

TEST(Stats, PercentilesExact) {
  lu::Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(p.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(p.percentile(99), 99.01, 0.02);
  EXPECT_NEAR(p.mean(), 50.5, 1e-9);
}

TEST(Md5, Rfc1321Vectors) {
  auto hex = [](const char* s) {
    return lu::Md5::hex_digest(
        {reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)});
  };
  EXPECT_EQ(hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex("message digest"), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Md5, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(100000);
  lu::Rng rng(3);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  lu::Md5 h;
  std::size_t pos = 0;
  std::size_t chunks[] = {1, 63, 64, 65, 1000, 31337};
  int i = 0;
  while (pos < data.size()) {
    std::size_t n = std::min(chunks[i++ % 6], data.size() - pos);
    h.update({data.data() + pos, n});
    h.update({});  // empty, null data(), mid-block: a no-op
    pos += n;
  }
  EXPECT_EQ(h.final(), lu::Md5::digest({data.data(), data.size()}));
}

// The straight-line kernel against the loop-form oracle kept in
// tests/md5_reference.h: every length 0..4096 (each padding case, each
// block boundary) with random contents, fed one-shot and in random
// update() chunkings that include empty and block-straddling pieces, then
// one 8 MiB buffer.
TEST(Md5, StraightLineKernelMatchesLoopFormOracle) {
  using lepton::test::Md5Reference;
  lu::Rng rng(1321);
  auto chunked = [&rng](const std::vector<std::uint8_t>& data) {
    lu::Md5 h;
    std::size_t pos = 0;
    while (pos < data.size()) {
      std::size_t left = data.size() - pos;
      std::size_t n = rng.chance(0.5) ? rng.below(130) : rng.below(left + 1);
      n = std::min(n, left);
      h.update({data.data() + pos, n});
      pos += n;
    }
    return h.final();
  };
  for (std::size_t len = 0; len <= 4096; ++len) {
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    auto want = Md5Reference::digest({data.data(), data.size()});
    ASSERT_EQ(lu::Md5::digest({data.data(), data.size()}), want)
        << "one-shot, len " << len;
    ASSERT_EQ(chunked(data), want) << "chunked, len " << len;
  }
  std::vector<std::uint8_t> big(8 << 20);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.next());
  auto want = Md5Reference::digest({big.data(), big.size()});
  EXPECT_EQ(lu::Md5::digest({big.data(), big.size()}), want);
  EXPECT_EQ(chunked(big), want);
  EXPECT_EQ(lu::Md5::hex_digest({big.data(), big.size()}), lu::Md5::hex(want));
}

// The published 64-bit FNV-1a test vectors. The journal checksum, ring
// placement and failpoint seeds all rest on this one function.
TEST(Fnv1a, StandardVectors) {
  EXPECT_EQ(lu::fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(lu::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(lu::fnv1a("foobar"), 0x85944171f73967e8ull);
  // Bytes above 0x7f hash as unsigned, whatever char's signedness.
  EXPECT_EQ(lu::fnv1a("\xff"), (0xcbf29ce484222325ull ^ 0xffull) *
                                    0x100000001b3ull);
}

TEST(TrackedMemory, GaugeSeesPeak) {
  lu::MemoryGauge g;
  {
    lu::tracked_vector<std::uint8_t> big(1 << 20);
    big[0] = 1;
  }
  EXPECT_GE(g.peak_bytes(), 1u << 20);
}

TEST(Rng, DeterministicAcrossInstances) {
  lu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  lu::Rng c(43);
  EXPECT_NE(lu::Rng(42).next(), c.next());
}

TEST(Rng, UniformInRange) {
  lu::Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    auto v = r.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    lu::ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] {
        count.fetch_add(1);
        done.fetch_add(1);
      });
    }
    while (done.load() < 100) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 100);
}

// Every index runs exactly once, and never on more than `threads` threads
// at a time — counted both as overlapping calls and as distinct thread ids
// (one thread per item would show thousands of ids at n = 4096).
TEST(ThreadPool, ParallelForSegmentsCoversRange) {
  struct Case {
    int n;
    int threads;
  };
  for (Case c : {Case{16, 8}, Case{4096, 4}, Case{3, 8}, Case{64, 2},
                 Case{5, 1}, Case{7, 0}, Case{1, 4}, Case{0, 4}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) +
                 " threads=" + std::to_string(c.threads));
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(c.n));
    std::atomic<int> active{0};
    std::atomic<int> peak{0};
    std::mutex mu;
    std::set<std::thread::id> ids;
    lu::parallel_for_segments(c.n, c.threads, [&](int i) {
      int now = active.fetch_add(1) + 1;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        ids.insert(std::this_thread::get_id());
      }
      hits[static_cast<std::size_t>(i)].fetch_add(1);
      std::this_thread::yield();  // widen the window for overlap
      active.fetch_sub(1);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    int cap = std::max(c.threads, 1);
    EXPECT_LE(peak.load(), cap);
    EXPECT_LE(static_cast<int>(ids.size()), cap);
    if (c.n <= 1 || c.threads <= 1) {
      // Serial: the calling thread alone, no thread started.
      EXPECT_LE(ids.size(), 1u);
      if (c.n > 0) {
        EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
      }
    }
  }
}

// read_file sizes its buffer once from fstat; the bytes it returns must be
// exactly the file's at every size around the 64 KiB read unit, with stale
// contents of the output vector gone. A pipe has no size to fstat, so all
// of its bytes take the path a file that grows under the read takes.
TEST(FileIo, ReadFileReturnsExactlyTheBytesRead) {
  namespace fio = lu::fileio;
  lu::Rng rng(21);
  std::string base = ::testing::TempDir() + "read_file_" +
                     std::to_string(::getpid()) + "_";
  for (std::size_t len : {0u, 1u, 65535u, 65536u, 65537u, 300001u}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    std::string path = base + std::to_string(len);
    ASSERT_TRUE(fio::write_file_atomic(path, {data.data(), data.size()},
                                       /*do_fsync=*/false)
                    .ok());
    std::vector<std::uint8_t> back = {7, 7, 7};
    ASSERT_TRUE(fio::read_file(path, &back));
    EXPECT_EQ(back, data);
    std::remove(path.c_str());
  }

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::vector<std::uint8_t> sent((200 << 10) + 7);
  for (auto& b : sent) b = static_cast<std::uint8_t>(rng.next());
  std::thread writer([&] {
    std::size_t off = 0;
    while (off < sent.size()) {
      ssize_t w = ::write(fds[1], sent.data() + off, sent.size() - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    ::close(fds[1]);
  });
  std::vector<std::uint8_t> got;
  bool ok = fio::read_file("/proc/self/fd/" + std::to_string(fds[0]), &got);
  writer.join();
  ::close(fds[0]);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, sent);

  EXPECT_FALSE(fio::read_file(base + "missing", &got));
}

TEST(Zlib, RoundTrip) {
  std::vector<std::uint8_t> data(50000);
  lu::Rng rng(9);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>((i / 100) & 0xFF);  // compressible
  }
  auto z = lu::zlib_compress({data.data(), data.size()}, 6);
  ASSERT_FALSE(z.empty());
  EXPECT_LT(z.size(), data.size());
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(lu::zlib_decompress({z.data(), z.size()}, back));
  EXPECT_EQ(back, data);
}

TEST(Zlib, RejectsCorrupt) {
  std::vector<std::uint8_t> junk(100, 0x55);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(lu::zlib_decompress({junk.data(), junk.size()}, out));
}

TEST(ExitCodes, NamesMatchPaperTable) {
  using lepton::util::ExitCode;
  using lepton::util::exit_code_name;
  EXPECT_EQ(exit_code_name(ExitCode::kSuccess), "Success");
  EXPECT_EQ(exit_code_name(ExitCode::kProgressive), "Progressive");
  EXPECT_EQ(exit_code_name(ExitCode::kMemLimitDecode), ">24 MiB mem decode");
  EXPECT_EQ(exit_code_name(ExitCode::kRoundtripFailed), "Roundtrip failed");
}

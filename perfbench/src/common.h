// Shared types and small helpers of the outside-in benchmark (see
// perfbench/README.md for the workloads and the metric map).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

// Median by linear interpolation between the two middle ranks.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in [0, 100].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// The tail the sample supports: the highest rank with at least ten samples
// above it, capped at p95 (`pct` receives the rank as a percentile). With
// ten samples or fewer there is no such rank and the maximum is reported
// (pct = 100). Above p95 the run-to-run spread of small_zipf's tails on a
// 4-vCPU VM (21-26% even after the steal adjustment) exceeds any bound the
// benchmark may set; the uncapped tail is printed beside it.
struct Tail {
  double value = 0;
  double pct = 100;
  std::size_t n = 0;
};

inline Tail tail_of(std::vector<double> v, double cap_pct = 95) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() <= 10) {
    t.value = v.back();
    return t;
  }
  std::size_t i = v.size() - 11;
  const auto cap = static_cast<std::size_t>(cap_pct / 100.0 * static_cast<double>(v.size()));
  if (cap >= 1 && i > cap - 1) i = cap - 1;
  t.value = v[i];
  t.pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(v.size());
  return t;
}

enum class OpKind : std::uint8_t { kPut, kGet };

// One closed-loop operation as a client saw it.
struct OpRecord {
  OpKind kind = OpKind::kPut;
  int client = 0;
  double ms = 0;            // call latency
  double end_s = 0;         // completion, seconds after the phase started
  std::uint64_t bytes = 0;  // original bytes put or served
  bool ok = false;          // acknowledged / served byte-identical
  std::uint64_t stored = 0;  // puts: payload bytes committed
  bool passthrough = false;  // puts: the fleet could not convert
  bool dedup = false;        // puts: the payload was already on disk
  bool cache_hit = false;    // gets: served from the decode cache
  bool again = false;        // gets: the gate's second read of a key
};

}  // namespace perfbench

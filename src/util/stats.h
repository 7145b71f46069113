// Statistics accumulators used by the benchmark harness and the deployment
// simulator: exact percentiles over collected samples (the paper reports
// p50/p75/p95/p99 throughout §4-§6) and Welford mean/stddev.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace lepton::util {

// Collects samples and answers exact percentile queries.
class Percentiles {
 public:
  void add(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }

  // p in [0, 100]. Linear interpolation between closest ranks.
  double percentile(double p) const {
    if (samples_.empty()) return 0.0;
    sort_if_needed();
    if (samples_.size() == 1) return samples_[0];
    double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    auto hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  double min() const { return percentile(0); }
  double median() const { return percentile(50); }
  double max() const { return percentile(100); }

  double mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0;
    for (double v : samples_) s += v;
    return s / static_cast<double>(samples_.size());
  }

  double stddev() const {
    if (samples_.size() < 2) return 0.0;
    double m = mean(), s = 0;
    for (double v : samples_) s += (v - m) * (v - m);
    return std::sqrt(s / static_cast<double>(samples_.size() - 1));
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  void clear() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  void sort_if_needed() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Bounded-memory percentile sketch: a uniform reservoir of up to
// `capacity` samples (Vitter's algorithm R, deterministic LCG). Long-lived
// daemons — the serving front-end's per-request latency stats — cannot
// keep every sample the way Percentiles does; a few-thousand-element
// reservoir answers p50-p99 queries within a fraction of a percentile at
// fleet rates, with O(capacity) memory and snapshot cost forever.
class ReservoirPercentiles {
 public:
  explicit ReservoirPercentiles(std::size_t capacity = 4096)
      : cap_(capacity == 0 ? 1 : capacity) {}

  void add(double v) {
    ++seen_;
    if (samples_.size() < cap_) {
      samples_.push_back(v);
      sorted_ = false;
      return;
    }
    // Replace a random slot with probability cap/seen (algorithm R).
    std::uint64_t j = next_random() % seen_;
    if (j < cap_) {
      samples_[static_cast<std::size_t>(j)] = v;
      sorted_ = false;
    }
  }

  // Same interpolation rule as Percentiles, over the reservoir.
  double percentile(double p) const {
    if (samples_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    if (samples_.size() == 1) return samples_[0];
    double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    auto hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  // Total samples observed (not the reservoir size).
  std::uint64_t count() const { return seen_; }
  std::size_t reservoir_size() const { return samples_.size(); }

 private:
  std::uint64_t next_random() {
    // SplitMix64: cheap, deterministic, no <random> heft in a header.
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::size_t cap_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0x2545F4914F6CDD1Dull;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Tallies small enum codes — in practice util::ExitCode — the way the
// paper's §6.2 table reports them: one count per code. The serving layer
// and the fleet requeue path accumulate per-request outcomes here.
class CodeTally {
 public:
  void add(unsigned code) {
    if (code >= counts_.size()) counts_.resize(code + 1, 0);
    ++counts_[code];
    ++total_;
  }

  std::uint64_t count(unsigned code) const {
    return code < counts_.size() ? counts_[code] : 0;
  }
  std::uint64_t total() const { return total_; }
  // Highest code ever added, +1 (iteration bound for report printers).
  unsigned ceiling() const { return static_cast<unsigned>(counts_.size()); }

  void merge(const CodeTally& other) {
    if (other.counts_.size() > counts_.size()) {
      counts_.resize(other.counts_.size(), 0);
    }
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }

  void clear() {
    counts_.clear();
    total_ = 0;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Formats "p50/p75/p95/p99" rows the way the paper's figures label them,
// for a Percentiles or a ReservoirPercentiles.
template <class P>
std::string format_percentiles(const P& p) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "p50=%.3f p75=%.3f p95=%.3f p99=%.3f",
                p.percentile(50), p.percentile(75), p.percentile(95),
                p.percentile(99));
  return buf;
}

// Formats a CodeTally's nonzero rows as "Name=count" pairs using `name`
// (pass util::exit_code_name via a lambda for §6.2 codes).
std::string format_code_tally(const CodeTally& t,
                              std::string (*name)(unsigned code));

}  // namespace lepton::util

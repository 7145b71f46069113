#include "inputs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "corpus/image_gen.h"
#include "jpeg/jfif_builder.h"
#include "util/fileio.h"

namespace perfbench {
namespace {

namespace fio = lepton::util::fileio;
using lepton::corpus::ImageStyle;
using lepton::jpegfmt::RasterImage;

// Bump when the generator changes, so cached sets from an older generator
// are not reused.
constexpr int kGeneratorVersion = 3;
// The corpus is the same for every run seed: how fast leptond streams a
// decode depends on the image itself (same-size photos take 60 to 500 ms),
// so seeded pixels would move the percentiles from seed to seed.
constexpr std::uint64_t kCorpusSeed = 20170327;
constexpr int kSizes = 32;     // base images per set
constexpr int kRasters = 4;    // large photos are crops of this many rasters

lepton::jpegfmt::RasterImage crop(const RasterImage& img, int w, int h) {
  RasterImage out;
  out.width = w;
  out.height = h;
  out.channels = img.channels;
  const std::size_t row = static_cast<std::size_t>(w) * img.channels;
  out.pixels.resize(row * h);
  for (int y = 0; y < h; ++y) {
    std::copy_n(img.pixels.data() +
                    static_cast<std::size_t>(y) * img.width * img.channels,
                row, out.pixels.data() + static_cast<std::size_t>(y) * row);
  }
  return out;
}

int round16(double v) { return std::max(16, static_cast<int>(v / 16.0) * 16); }

// 4:3 raster dimensions holding `target` bytes at `bpp`, times `headroom`
// in area.
std::pair<int, int> dims_for(std::size_t target, double bpp, double headroom) {
  double area = static_cast<double>(target) * 8.0 / bpp * headroom;
  int w = round16(std::sqrt(area * 4.0 / 3.0));
  return {w, round16(w * 3.0 / 4.0)};
}

// A JPEG of a top-left 4:3 crop of `img` within ~2% of `target` bytes.
// `bpp` is the starting guess of bits per pixel and receives the rate
// measured, so the next (smaller) crop of the same raster starts close.
std::vector<std::uint8_t> fit_crop(const RasterImage& img, std::size_t target,
                                   int quality, double* bpp) {
  lepton::jpegfmt::JfifOptions opt;
  opt.quality = quality;
  std::vector<std::uint8_t> best;
  double best_err = 1e9;
  for (int iter = 0; iter < 4 && best_err > 0.02; ++iter) {
    auto [w, h] = dims_for(target, *bpp, 1.0);
    w = std::min(w, img.width / 16 * 16);
    h = std::min(h, img.height / 16 * 16);
    auto jpg = lepton::jpegfmt::build_jfif(crop(img, w, h), opt);
    *bpp = static_cast<double>(jpg.size()) * 8.0 / (static_cast<double>(w) * h);
    double err = std::fabs(static_cast<double>(jpg.size()) /
                               static_cast<double>(target) - 1.0);
    if (err < best_err) {
      best_err = err;
      best = std::move(jpg);
    }
  }
  return best;
}

std::string set_dir(InputFamily family, const std::string& cache_dir) {
  return cache_dir + "/" + (family == InputFamily::kLarge ? "large" : "small") +
         "-v" + std::to_string(kGeneratorVersion);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Standard-normal quantile, by bisection on the CDF.
double normal_quantile(double p) {
  double lo = -8, hi = 8;
  for (int i = 0; i < 100; ++i) {
    double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

// The sizes a family aims for (each image lands within about 2%).
std::vector<std::size_t> target_sizes(InputFamily family) {
  std::vector<std::size_t> out;
  if (family == InputFamily::kLarge) {
    // Stratified quantiles (i + 0.5) / kSizes of a log-normal with sigma
    // 0.7, capped at 4 MiB, its median chosen so the sizes average 1.5 MiB.
    const double sigma = 0.7, cap = 4.0 * (1 << 20), mean = 1.5 * (1 << 20);
    std::vector<double> mult;
    for (int i = 0; i < kSizes; ++i) {
      mult.push_back(std::exp(sigma * normal_quantile((i + 0.5) / kSizes)));
    }
    double lo = 0.1 * mean, hi = mean;
    for (int it = 0; it < 100; ++it) {
      double m = 0.5 * (lo + hi), sum = 0;
      for (double x : mult) sum += std::min(m * x, cap);
      (sum / kSizes < mean ? lo : hi) = m;
    }
    for (double x : mult) out.push_back(static_cast<std::size_t>(std::min(lo * x, cap)));
  } else {
    const double lo = std::log(8.0 * 1024), hi = std::log(127.0 * 1024);
    for (int i = 0; i < kSizes; ++i) {
      out.push_back(static_cast<std::size_t>(
          std::exp(lo + (hi - lo) * (i + 0.5) / kSizes)));
    }
  }
  return out;
}

// Large photos: raster r yields the sizes r, r + kRasters, ... as crops,
// largest first, all in one style and quality.
void make_large(std::uint64_t seed, std::vector<std::vector<std::uint8_t>>* out) {
  const std::vector<std::size_t> targets = target_sizes(InputFamily::kLarge);
  std::vector<std::thread> pool;
  for (int r = 0; r < kRasters; ++r) {
    pool.emplace_back([&, r] {
      std::vector<std::size_t> mine;
      for (std::size_t i = static_cast<std::size_t>(r); i < targets.size();
           i += kRasters) {
        mine.push_back(i);
      }
      std::sort(mine.begin(), mine.end(),
                [&](std::size_t a, std::size_t b) { return targets[a] > targets[b]; });
      double bpp = 2.0;  // texture at quality 95
      auto [w, h] = dims_for(targets[mine.front()], bpp, 1.3);
      RasterImage img = lepton::corpus::generate_image(
          w, h, 3, ImageStyle::kTexture, mix(seed, static_cast<std::uint64_t>(r)));
      for (std::size_t i : mine) (*out)[i] = fit_crop(img, targets[i], 95, &bpp);
    });
  }
  for (auto& t : pool) t.join();
}

// Small photos and thumbnails: one raster per size, with style and quality
// varying by slot.
void make_small(std::uint64_t seed, std::vector<std::vector<std::uint8_t>>* out) {
  static const ImageStyle kStyles[] = {ImageStyle::kMixed, ImageStyle::kTexture,
                                       ImageStyle::kEdges,
                                       ImageStyle::kSmoothGradient};
  const std::vector<std::size_t> targets = target_sizes(InputFamily::kSmall);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < targets.size();) {
        double bpp = 1.0;
        auto [w, h] = dims_for(targets[i], bpp, 2.0);
        RasterImage img = lepton::corpus::generate_image(
            w, h, 3, kStyles[i % 4], mix(seed, 1000 + i));
        (*out)[i] = fit_crop(img, targets[i], 75 + static_cast<int>((i * 7) % 21), &bpp);
      }
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace

InputSet load_inputs(InputFamily family, const std::string& cache_dir,
                     std::string* err) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string dir = set_dir(family, cache_dir);
  InputSet set;
  set.bases.resize(kSizes);

  bool cached = true;
  for (std::size_t i = 0; i < set.bases.size() && cached; ++i) {
    cached = fio::read_file(dir + "/b" + std::to_string(i) + ".jpg",
                            &set.bases[i]);
  }
  if (!cached) {
    set.generated = true;
    if (family == InputFamily::kLarge) {
      make_large(kCorpusSeed, &set.bases);
    } else {
      make_small(kCorpusSeed, &set.bases);
    }
    if (!fio::make_dirs(dir)) {
      *err = "cannot create " + dir;
      set.bases.clear();
      return set;
    }
    for (std::size_t i = 0; i < set.bases.size(); ++i) {
      auto st = fio::write_file_atomic(dir + "/b" + std::to_string(i) + ".jpg",
                                       set.bases[i], /*do_fsync=*/false);
      if (!st.ok()) {
        *err = "cannot write inputs under " + dir;
        set.bases.clear();
        return set;
      }
    }
  }
  set.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return set;
}

std::vector<std::uint8_t> with_comment(std::span<const std::uint8_t> base,
                                       std::string_view tag) {
  const std::size_t len = tag.size() + 2;  // the segment length counts itself
  std::vector<std::uint8_t> out(base.size() + len + 2);
  std::uint8_t* o = out.data();
  o = std::copy_n(base.data(), 2, o);  // SOI
  *o++ = 0xFF;
  *o++ = 0xFE;
  *o++ = static_cast<std::uint8_t>(len >> 8);
  *o++ = static_cast<std::uint8_t>(len & 0xFF);
  o = std::copy(tag.begin(), tag.end(), o);
  std::copy(base.begin() + 2, base.end(), o);
  return out;
}

}  // namespace perfbench

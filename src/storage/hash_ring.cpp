#include "storage/hash_ring.h"

#include <algorithm>

#include "util/fnv1a.h"

namespace lepton::storage {

namespace {

using util::fnv1a;

// SplitMix64 finalizer: a cheap, well-mixed bijection. Turning the FNV
// digest through it decorrelates nearby names/vnode indices so points
// spread uniformly on the ring.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kKeySalt = 0x6c6570746f6e6b65ull;    // "leptonke"
constexpr std::uint64_t kShardSalt = 0x6c6570746f6e7368ull;  // "leptonsh"

}  // namespace

HashRing::HashRing(HashRingConfig cfg) : cfg_(cfg) {
  if (cfg_.vnodes < 1) cfg_.vnodes = 1;
}

std::uint64_t HashRing::key_point(std::string_view key) const {
  return mix(fnv1a(key) ^ cfg_.seed ^ kKeySalt);
}

std::uint64_t HashRing::shard_point(std::string_view name, int vnode) const {
  return mix(mix(fnv1a(name) ^ cfg_.seed ^ kShardSalt) +
             static_cast<std::uint64_t>(vnode));
}

int HashRing::add_shard(std::string_view name) {
  if (name.empty() || contains(name)) return -1;
  int id = static_cast<int>(names_.size());
  names_.emplace_back(name);
  ++live_;
  points_.reserve(points_.size() + static_cast<std::size_t>(cfg_.vnodes));
  for (int v = 0; v < cfg_.vnodes; ++v) {
    points_.push_back(Point{shard_point(name, v), id});
  }
  std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
    return a.h != b.h ? a.h < b.h : a.id < b.id;
  });
  return id;
}

bool HashRing::remove_shard(std::string_view name) {
  int id = id_of(name);
  if (id < 0) return false;
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [id](const Point& p) { return p.id == id; }),
                points_.end());
  names_[static_cast<std::size_t>(id)].clear();
  --live_;
  return true;
}

int HashRing::shard_of(std::string_view key) const {
  if (points_.empty()) return -1;
  std::uint64_t h = key_point(key);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t v) { return p.h < v; });
  if (it == points_.end()) it = points_.begin();  // wrap past the top
  return it->id;
}

bool HashRing::contains(std::string_view name) const {
  return id_of(name) >= 0;
}

int HashRing::id_of(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (!names_[i].empty() && names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

const std::string& HashRing::name_of(int id) const {
  static const std::string kEmpty;
  if (id < 0 || static_cast<std::size_t>(id) >= names_.size()) return kEmpty;
  return names_[static_cast<std::size_t>(id)];
}

std::vector<std::string> HashRing::members() const {
  std::vector<std::string> out;
  out.reserve(live_);
  for (const auto& n : names_) {
    if (!n.empty()) out.push_back(n);
  }
  return out;
}

}  // namespace lepton::storage

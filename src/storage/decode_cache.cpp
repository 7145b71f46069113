#include "storage/decode_cache.h"

namespace lepton::storage {

DecodeCache::DecodeCache(DecodeCacheConfig cfg) : cfg_(cfg) {
  if (cfg_.budget_bytes == 0) cfg_.budget_bytes = 1;  // degenerate but valid
  if (cfg_.max_entry_bytes == 0) {
    cfg_.max_entry_bytes = cfg_.budget_bytes / 4;
    if (cfg_.max_entry_bytes == 0) cfg_.max_entry_bytes = cfg_.budget_bytes;
  }
  stats_.budget_bytes = cfg_.budget_bytes;
}

DecodeCache::Value DecodeCache::get(std::string_view md5_hex) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.gets;
  auto it = map_.find(md5_hex);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  // Refresh recency: splice the node to the front; iterators (and the
  // string_view keys into node storage) stay valid.
  lru_.splice(lru_.begin(), lru_, it->second);
  stats_.hit_bytes_served += it->second->value->size();
  return it->second->value;
}

void DecodeCache::put(std::string_view md5_hex, Value value) {
  if (value == nullptr) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (value->size() > cfg_.max_entry_bytes ||
      value->size() > cfg_.budget_bytes) {
    ++stats_.rejected_oversize;
    return;
  }
  auto it = map_.find(md5_hex);
  if (it != map_.end()) {
    // Same content address ⇒ same bytes; just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{std::string(md5_hex), std::move(value)});
  auto node = lru_.begin();
  map_.emplace(std::string_view(node->md5_hex), node);
  stats_.bytes += node->value->size();
  ++stats_.entries;
  ++stats_.insertions;
  evict_to_budget_locked();
}

void DecodeCache::evict_to_budget_locked() {
  while (stats_.bytes > cfg_.budget_bytes && !lru_.empty()) {
    auto victim = std::prev(lru_.end());
    stats_.bytes -= victim->value->size();
    --stats_.entries;
    ++stats_.evictions;
    map_.erase(std::string_view(victim->md5_hex));
    lru_.erase(victim);
  }
}

bool DecodeCache::invalidate(std::string_view md5_hex) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(md5_hex);
  if (it == map_.end()) return false;
  auto node = it->second;
  stats_.bytes -= node->value->size();
  --stats_.entries;
  ++stats_.invalidations;
  map_.erase(it);
  lru_.erase(node);
  return true;
}

std::uint64_t DecodeCache::invalidate_all() {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t dropped = stats_.entries;
  stats_.invalidations += dropped;
  stats_.bytes = 0;
  stats_.entries = 0;
  map_.clear();
  lru_.clear();
  return dropped;
}

DecodeCacheStats DecodeCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace lepton::storage

// Bounded decoded-output LRU cache (ISSUE 10).
//
// Hot objects must not pay a full Lepton decode on every read (Xu et al.,
// arXiv:1912.11145: photo reads are heavily Zipf-skewed), so the sharded
// store keeps recently decoded originals in memory, keyed by the *content
// md5* of the stored payload. It is the system's one decoded-output cache:
// the serving daemon keeps none, and every DECODE it serves streams.
//
// Coherence rule (DESIGN.md §"Sharded storage"): entries are keyed by
// content address, and content-addressed bytes are immutable — a given md5
// can only ever map to one decoded output, so a cache entry can never be
// wrong, only useless. Staleness exists solely in the key→md5 mapping,
// which lives in the store's index, not here. The store still invalidates
// conservatively: an overwrite drops the *old* payload's entry (worst case
// one redundant re-decode for a deduped sibling key), and a SHUTOFF drill
// clears the cache outright so the drill observes the uncached path.
//
// Values are shared_ptr<const vector>: a reader holding a hit keeps the
// bytes alive even if the entry is evicted mid-read, so eviction needs no
// reader coordination. Counters reconcile by construction:
// hits + misses == gets, entries/bytes never exceed the budget after any
// call returns. They are reported through stats() (ShardedStore::stats()
// carries them as `cache`).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lepton::storage {

struct DecodeCacheConfig {
  std::size_t budget_bytes = 64u << 20;
  // Entries larger than this are rejected outright (a single huge decode
  // must not wipe the whole working set). 0 = budget / 4.
  std::size_t max_entry_bytes = 0;
};

struct DecodeCacheStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // explicit drops (overwrite, SHUTOFF)
  std::uint64_t rejected_oversize = 0;
  std::uint64_t bytes = 0;    // resident decoded bytes now
  std::uint64_t entries = 0;  // resident entries now
  std::uint64_t hit_bytes_served = 0;
  std::uint64_t budget_bytes = 0;
};

class DecodeCache {
 public:
  using Value = std::shared_ptr<const std::vector<std::uint8_t>>;

  explicit DecodeCache(DecodeCacheConfig cfg = {});

  // Looks up by content md5 (hex). A hit refreshes recency and returns the
  // shared bytes; nullptr = miss. Every call counts toward gets.
  Value get(std::string_view md5_hex);

  // Inserts (or refreshes) the decoded output for `md5_hex`, evicting from
  // the LRU tail until the byte budget holds. Oversize values are rejected
  // and tallied. Inserting an md5 that is already resident just refreshes
  // recency — content-addressed values cannot differ.
  void put(std::string_view md5_hex, Value value);

  // Drops one entry (store overwrite invalidation). False = not resident.
  bool invalidate(std::string_view md5_hex);
  // Drops everything (SHUTOFF drill). Returns entries dropped.
  std::uint64_t invalidate_all();

  DecodeCacheStats stats() const;

  std::size_t budget_bytes() const { return cfg_.budget_bytes; }
  std::size_t max_entry_bytes() const { return cfg_.max_entry_bytes; }

 private:
  struct Entry {
    std::string md5_hex;
    Value value;
  };

  void evict_to_budget_locked();

  DecodeCacheConfig cfg_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string_view, std::list<Entry>::iterator> map_;
  DecodeCacheStats stats_;
};

}  // namespace lepton::storage

// ShardedStore — the fleet-facing storage plane (ISSUE 10, ROADMAP item 4).
//
// The paper's deployment is not one blockserver but a fleet fronting
// hundreds of PB (§4.2, §6). PR 9 gave one node crash-safe durability
// (storage::DurableStore); this layer routes put/get across N such
// backends with a consistent-hash ring (hash_ring.h) and keeps hot decoded
// outputs in a bounded LRU (decode_cache.h) so Zipf-skewed read traffic
// does not pay a full Lepton decode per read.
//
// Topology: every shard owns a DurableStore root. A shard may additionally
// name `leptond` endpoints — conversions for keys on that shard then go
// through the self-healing FleetClient (breakers, backoff, least-in-flight
// routing all reused from PR 8) against the shard's own §5.7 admission
// gate, and the admitted object is committed locally via put_object(). A
// fleet that cannot convert degrades that put to pass-through, never to an
// error: availability is per-key and durability is never gated on the
// fleet.
//
// Failure semantics:
//   * shard loss (kill_shard, or a crashed backend) degrades PER-KEY:
//     operations routed to the dead shard classify kServerShutdown
//     (unavailable, retryable — never wrong bytes, never a claimed miss),
//     every other key is untouched;
//   * restart_shard() reopens the root through full DurableStore recovery,
//     so every previously acknowledged key on that shard must come back
//     byte-identical (the replay driver and tests assert exactly this);
//   * membership growth (add_shard) migrates exactly the keys whose ring
//     owner changed — the objects move at rest (get_object/put_object, no
//     decode), expected fraction ≈ 1/(N+1) of the keyspace.
//
// Decode-cache coherence: entries are keyed by content address
// (payload md5 + storage kind — the kind is part of the key because one
// payload byte-string can legally decode differently under different
// kinds), so a resident entry can never be wrong. Overwrites additionally
// invalidate the old payload's entry, and a SHUTOFF drill clears the cache
// (see decode_cache.h).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "storage/decode_cache.h"
#include "storage/durable_store.h"
#include "storage/fleet_client.h"
#include "storage/hash_ring.h"

namespace lepton::storage {

struct ShardBackendConfig {
  std::string name;  // ring identity; must be unique and stable
  std::string root;  // DurableStore root directory
  // Optional leptond endpoints ("unix:/path" | "tcp:host:port"): when
  // non-empty, put() converts through a FleetClient against this shard's
  // admission gate instead of encoding locally.
  std::vector<std::string> endpoints;
};

struct ShardedStoreConfig {
  std::vector<ShardBackendConfig> shards;
  int ring_vnodes = 128;
  std::uint64_t ring_seed = 1017;
  // Decoded-output LRU budget; 0 disables the cache entirely.
  std::size_t decode_cache_bytes = 64u << 20;
  std::size_t decode_cache_max_entry_bytes = 0;  // 0 = budget/4
  // Per-shard DurableStore settings.
  FsyncMode fsync = FsyncMode::kBatch;
  bool verify_md5_on_open = true;
  EncodeOptions encode;
  // Template for per-shard fleet clients (endpoints replaced per shard).
  FleetClientConfig fleet;
};

struct ShardedPutStats {
  int shard = -1;
  bool remote_converted = false;  // fleet produced the admitted container
  bool passthrough = false;       // fleet degraded to pass-through
  DurablePutStats durable;        // durable.acknowledged is the verdict
};

struct ShardedGetStats {
  int shard = -1;
  bool cache_hit = false;
};

struct ShardHealth {
  std::string name;
  std::string root;
  bool alive = false;
  bool fleet = false;  // converts via endpoints
  std::uint64_t keys = 0;
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
};

struct ShardedStoreStats {
  std::uint64_t puts = 0;
  std::uint64_t puts_acknowledged = 0;
  std::uint64_t puts_failed = 0;       // commit failed (disk full, io error)
  std::uint64_t puts_unavailable = 0;  // routed to a dead shard
  std::uint64_t gets = 0;
  std::uint64_t gets_not_found = 0;
  std::uint64_t gets_failed = 0;       // exists but unserveable
  std::uint64_t gets_unavailable = 0;  // routed to a dead shard
  std::uint64_t cache_hits = 0;
  std::uint64_t remote_conversions = 0;
  std::uint64_t passthrough_fallbacks = 0;
  std::uint64_t migrated_objects = 0;
  std::uint64_t migrate_read_errors = 0;
  std::uint64_t shard_kills = 0;
  std::uint64_t shard_restarts = 0;
  std::uint64_t shutoff_drills = 0;
  DecodeCacheStats cache;
  std::vector<ShardHealth> shards;
};

class ShardedStore {
 public:
  ~ShardedStore();
  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  // Opens every shard root (running each one's recovery). nullptr with
  // *err set if any shard fails to open or a name is duplicated.
  static std::unique_ptr<ShardedStore> open(ShardedStoreConfig cfg,
                                            std::string* err);

  // Routes by ring, converts (locally or via the shard's fleet), commits.
  // A dead shard yields durable.code == kServerShutdown, acknowledged ==
  // false — unavailable, not lost.
  ShardedPutStats put(std::string_view key, std::span<const std::uint8_t> file);
  // Commits a pre-admitted object on the owning shard (bulk backfill, the
  // replay driver's simulated-object path).
  ShardedPutStats put_object(std::string_view key, const StoredObject& obj);

  // Reads through the decode cache. False = key unknown fleet-wide. True
  // with out->code != kSuccess: kServerShutdown when the owning shard is
  // down (the key may exist — absence is never claimed on a dead shard),
  // otherwise DurableStore::get's classification.
  bool get(std::string_view key, Result* out, ShardedGetStats* gs = nullptr);

  bool contains(std::string_view key) const;
  int shard_of(std::string_view key) const;
  std::size_t shard_count() const;
  bool shard_alive(int shard) const;
  std::vector<std::string> shard_keys(int shard) const;

  // Availability drills. kill_shard closes the backend (in-flight reads
  // holding the handle finish safely); restart_shard reopens it through
  // full recovery. Both are idempotent-safe.
  bool kill_shard(int shard);
  bool restart_shard(int shard, std::string* err);

  // Membership growth with minimal-remap migration: opens the new backend,
  // adds it to the ring, and moves exactly the objects whose owner changed
  // (at rest — no decode). False with *err on open failure; migration read
  // errors are tallied, never silent.
  bool add_shard(ShardBackendConfig shard, std::string* err);

  // §5.7 SHUTOFF drill across the fleet: flips every live shard's codec
  // switch and (on engage) clears the decode cache so the drill observes
  // the real uncached path.
  void set_shutoff(bool on);

  // Journal group-commit barrier on every live shard.
  bool sync();

  ShardedStoreStats stats() const;

  DecodeCache* cache() { return cache_.get(); }

 private:
  struct Shard {
    ShardBackendConfig cfg;
    std::shared_ptr<DurableStore> store;  // null while killed
    std::unique_ptr<FleetClient> fleet;
    bool alive = false;
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
  };

  explicit ShardedStore(ShardedStoreConfig cfg);

  DurableStoreConfig shard_store_config(const ShardBackendConfig& sh) const;
  std::unique_ptr<FleetClient> make_fleet(const ShardBackendConfig& sh) const;
  // Routes a key; fills *sid and returns the backend handle, or nullptr
  // when the owning shard is down (never when the ring is merely empty —
  // open() guarantees ≥1 shard).
  std::shared_ptr<DurableStore> route(std::string_view key, int* sid,
                                      bool is_put);
  static std::string cache_key(const std::string& md5_hex, StorageKind kind);
  void finish_put(int sid, const std::string& old_cache_key, bool had_old,
                  ShardedPutStats* out);

  ShardedStoreConfig cfg_;
  HashRing ring_;
  std::unique_ptr<DecodeCache> cache_;
  mutable std::mutex mu_;  // shards_ + counters (ring is write-locked too)
  std::vector<Shard> shards_;
  ShardedStoreStats stats_;
};

}  // namespace lepton::storage

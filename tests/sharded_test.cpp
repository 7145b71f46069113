// Tests for the sharded fleet store (ISSUE 10): hash-ring placement
// properties (determinism, uniformity, minimal remap — fuzzed over random
// membership histories), a differential check that ShardedStore over N
// durable backends serves byte-identically to a single store through
// overwrites and a shard kill/restart, and the decode-cache invariants
// (byte-identity, budget under concurrency, overwrite/SHUTOFF coherence,
// counter reconciliation). hash_ring.h states the invariants; this file is
// where they are pinned down.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus.h"
#include "leptond/event_server.h"
#include "server/client.h"
#include "storage/decode_cache.h"
#include "storage/durable_store.h"
#include "storage/hash_ring.h"
#include "storage/sharded_store.h"
#include "storage/workload.h"
#include "util/rng.h"

namespace ls = lepton::storage;

using lepton::util::ExitCode;

namespace {

std::string fresh_root(const std::string& tag) {
  static int n = 0;
  return std::string(::testing::TempDir()) + "sharded_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(n++);
}

std::vector<std::uint8_t> test_jpeg(std::uint64_t seed,
                                    std::size_t bytes = 12 << 10) {
  return lepton::corpus::jpeg_of_size(bytes, seed);
}

// Zipf-named keys: the uniformity and remap properties must hold for the
// skewed key population the replay actually sends, not just sequential
// names.
std::vector<std::string> zipf_keys(std::size_t distinct, std::size_t draws,
                                   std::uint64_t seed) {
  ls::ZipfSampler zipf(distinct, 0.99);
  lepton::util::Rng rng(seed);
  std::vector<std::string> keys;
  keys.reserve(draws);
  for (std::size_t i = 0; i < draws; ++i) {
    keys.push_back("photos/" + std::to_string(zipf.sample(rng)) + ".jpg");
  }
  return keys;
}

// ---- hash ring: determinism ------------------------------------------------

TEST(HashRing, SameMembershipSetMapsIdenticallyRegardlessOfHistory) {
  // Ring A: straight adds. Ring B: a noisy history (extra members added and
  // removed, different insertion order) converging on the same live set.
  // Placement must be a function of the set alone — compare by NAME, since
  // ids encode history by design.
  ls::HashRing a, b;
  for (const char* n : {"s0", "s1", "s2", "s3", "s4"}) a.add_shard(n);
  b.add_shard("tmp0");
  b.add_shard("s3");
  b.add_shard("s1");
  b.add_shard("tmp1");
  b.add_shard("s4");
  b.remove_shard("tmp0");
  b.add_shard("s0");
  b.add_shard("s2");
  b.remove_shard("tmp1");
  ASSERT_EQ(a.size(), b.size());
  for (int k = 0; k < 10000; ++k) {
    std::string key = "k" + std::to_string(k);
    EXPECT_EQ(a.name_of(a.shard_of(key)), b.name_of(b.shard_of(key)))
        << "key " << key << " placed by history, not by membership";
  }
}

TEST(HashRing, IdenticalAcrossInstancesWithSameSeed) {
  // Process-restart determinism: a fresh ring built from the same config
  // and membership reproduces every mapping (no RNG state, no address
  // dependence). Different seed must give a genuinely different placement.
  ls::HashRingConfig cfg;
  cfg.vnodes = 64;
  cfg.seed = 42;
  ls::HashRing a(cfg), b(cfg);
  ls::HashRingConfig other = cfg;
  other.seed = 43;
  ls::HashRing c(other);
  for (int s = 0; s < 6; ++s) {
    a.add_shard("shard-" + std::to_string(s));
    b.add_shard("shard-" + std::to_string(s));
    c.add_shard("shard-" + std::to_string(s));
  }
  int differs = 0;
  for (int k = 0; k < 5000; ++k) {
    std::string key = "obj" + std::to_string(k);
    EXPECT_EQ(a.shard_of(key), b.shard_of(key));
    EXPECT_EQ(a.key_point(key), b.key_point(key));
    if (a.shard_of(key) != c.shard_of(key)) ++differs;
  }
  EXPECT_GT(differs, 3000) << "seed does not actually salt placement";
}

TEST(HashRing, StableIdsAndAccessors) {
  ls::HashRing r;
  EXPECT_EQ(r.shard_of("anything"), -1);  // empty ring
  int s0 = r.add_shard("alpha");
  int s1 = r.add_shard("beta");
  EXPECT_EQ(s0, 0);
  EXPECT_EQ(s1, 1);
  EXPECT_EQ(r.add_shard("alpha"), -1) << "duplicate name must be refused";
  EXPECT_TRUE(r.contains("alpha"));
  EXPECT_EQ(r.id_of("beta"), 1);
  EXPECT_EQ(r.name_of(0), "alpha");
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.points(), 2u * 128u);  // default vnodes
  ASSERT_TRUE(r.remove_shard("alpha"));
  EXPECT_FALSE(r.remove_shard("alpha"));
  EXPECT_EQ(r.name_of(0), "") << "retired id must not resolve";
  EXPECT_EQ(r.id_of("alpha"), -1);
  // The retired id is never recycled: a re-added name gets a fresh one.
  EXPECT_EQ(r.add_shard("alpha"), 2);
  EXPECT_EQ(r.members(), (std::vector<std::string>{"beta", "alpha"}));
}

// ---- hash ring: uniformity -------------------------------------------------

TEST(HashRing, UniformityBoundAcross1kVnodesUnderZipfKeys) {
  // With ~1k virtual nodes per shard the arc lengths concentrate tightly;
  // the distinct-key load (each key counted once — traffic skew is the
  // cache's problem, placement skew is the ring's) must stay within a small
  // constant of the mean. Measured max/mean on this configuration is ~1.05;
  // 1.25 leaves margin without ever excusing a broken ring (a single-salt
  // bug or unsorted ring blows past 2x instantly).
  ls::HashRingConfig cfg;
  cfg.vnodes = 1000;
  ls::HashRing r(cfg);
  const int kShards = 8;
  for (int s = 0; s < kShards; ++s) r.add_shard("blockserver-" + std::to_string(s));
  const std::size_t kDistinct = 40000;
  std::vector<std::uint64_t> load(kShards, 0);
  for (std::size_t k = 0; k < kDistinct; ++k) {
    std::string key = "photos/" + std::to_string(k) + ".jpg";
    int id = r.shard_of(key);
    ASSERT_GE(id, 0);
    ASSERT_LT(id, kShards);
    ++load[id];
  }
  double mean = static_cast<double>(kDistinct) / kShards;
  std::uint64_t max = *std::max_element(load.begin(), load.end());
  std::uint64_t min = *std::min_element(load.begin(), load.end());
  EXPECT_LT(max / mean, 1.25) << "max load " << max << " vs mean " << mean;
  EXPECT_GT(min / mean, 0.75) << "min load " << min << " vs mean " << mean;
}

// ---- hash ring: minimal remap ----------------------------------------------

TEST(HashRing, AddShardMovesKeysOnlyToTheNewShard) {
  const int kShards = 8;
  ls::HashRing r;
  for (int s = 0; s < kShards; ++s) r.add_shard("s" + std::to_string(s));
  std::vector<std::string> keys = zipf_keys(30000, 30000, 77);
  std::vector<int> before(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) before[i] = r.shard_of(keys[i]);
  int fresh = r.add_shard("s-new");
  ASSERT_GE(fresh, 0);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    int after = r.shard_of(keys[i]);
    if (after != before[i]) {
      EXPECT_EQ(after, fresh)
          << "key " << keys[i] << " moved between OLD shards on an add";
      ++moved;
    }
  }
  // Expected fraction 1/(N+1) = 1/9 ≈ 11.1%; allow generous sampling noise
  // but reject both a ring that barely rebalances and one that reshuffles
  // everything (modulo hashing moves ~N/(N+1) of all keys — 89% here).
  double frac = static_cast<double>(moved) / keys.size();
  EXPECT_GT(frac, 0.5 / (kShards + 1)) << "new shard got almost nothing";
  EXPECT_LT(frac, 2.0 / (kShards + 1)) << "far more than 1/N remapped";
}

TEST(HashRing, RemoveShardMovesOnlyItsOwnKeys) {
  const int kShards = 8;
  ls::HashRing r;
  for (int s = 0; s < kShards; ++s) r.add_shard("s" + std::to_string(s));
  int victim = r.id_of("s3");
  std::vector<std::string> keys = zipf_keys(30000, 30000, 78);
  std::vector<int> before(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) before[i] = r.shard_of(keys[i]);
  ASSERT_TRUE(r.remove_shard("s3"));
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    int after = r.shard_of(keys[i]);
    if (before[i] == victim) {
      EXPECT_NE(after, victim);
      ++moved;
    } else {
      EXPECT_EQ(after, before[i])
          << "key " << keys[i] << " moved although its shard survived";
    }
  }
  double frac = static_cast<double>(moved) / keys.size();
  EXPECT_GT(frac, 0.5 / kShards);
  EXPECT_LT(frac, 2.0 / kShards);
}

TEST(HashRing, FuzzedMembershipSequencesStayConsistentWithFreshRings) {
  // Random add/remove walks; after every step the ring must agree with a
  // fresh ring built from just the current live set, and a step must move
  // no key between two surviving shards.
  lepton::util::Rng rng(1017);
  std::vector<std::string> keys = zipf_keys(2000, 2000, 79);
  for (int trial = 0; trial < 4; ++trial) {
    ls::HashRing ring;
    std::set<std::string> live;
    int next_name = 0;
    ring.add_shard("m0");
    live.insert("m0");
    for (int step = 0; step < 30; ++step) {
      std::vector<std::string> before_owner(keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        before_owner[i] = ring.name_of(ring.shard_of(keys[i]));
      }
      bool grow = live.size() <= 1 || rng.uniform() < 0.55;
      std::string changed;
      if (grow) {
        changed = "m" + std::to_string(++next_name);
        ASSERT_GE(ring.add_shard(changed), 0);
        live.insert(changed);
      } else {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.uniform() * live.size()) %
                             static_cast<long>(live.size()));
        changed = *it;
        ASSERT_TRUE(ring.remove_shard(changed));
        live.erase(changed);
      }
      // Minimal remap: only keys touching the changed member moved.
      for (std::size_t i = 0; i < keys.size(); ++i) {
        std::string now = ring.name_of(ring.shard_of(keys[i]));
        if (now != before_owner[i]) {
          EXPECT_TRUE(now == changed || before_owner[i] == changed)
              << "step " << step << ": " << keys[i] << " moved "
              << before_owner[i] << " -> " << now << " when " << changed
              << " changed";
        }
      }
      // History independence: a fresh ring over the live set agrees.
      ls::HashRing fresh;
      for (const std::string& n : live) fresh.add_shard(n);
      for (std::size_t i = 0; i < keys.size(); i += 7) {
        EXPECT_EQ(ring.name_of(ring.shard_of(keys[i])),
                  fresh.name_of(fresh.shard_of(keys[i])));
      }
    }
  }
}

// ---- sharded store: differential vs a single store -------------------------

ls::ShardedStoreConfig sharded_config(const std::string& tag, int shards,
                                      std::size_t cache_bytes) {
  ls::ShardedStoreConfig cfg;
  for (int s = 0; s < shards; ++s) {
    ls::ShardBackendConfig sh;
    sh.name = "shard-" + std::to_string(s);
    sh.root = fresh_root(tag + "_s" + std::to_string(s));
    cfg.shards.push_back(std::move(sh));
  }
  cfg.decode_cache_bytes = cache_bytes;
  cfg.fsync = ls::FsyncMode::kNone;  // process-death durability is PR 9's
                                     // battlefield; these tests drill routing
  return cfg;
}

TEST(ShardedStore, DifferentialVsSingleStoreThroughKillAndRestart) {
  // Fuzzed put/get/overwrite stream applied to BOTH a 4-shard store and a
  // single DurableStore; every successful sharded read must be
  // byte-identical to the single store's answer and to the reference map.
  // Mid-sequence one shard dies (reads route-degrade, never lie) and comes
  // back through full recovery; afterwards fsck must pass on every root.
  const int kShards = 4;
  ls::ShardedStoreConfig cfg = sharded_config("diff", kShards, 8u << 20);
  std::string err;
  auto sharded = ls::ShardedStore::open(cfg, &err);
  ASSERT_NE(sharded, nullptr) << err;

  ls::DurableStoreConfig mono_cfg;
  mono_cfg.root = fresh_root("diff_mono");
  mono_cfg.fsync = ls::FsyncMode::kNone;
  auto mono = ls::DurableStore::open(mono_cfg, &err);
  ASSERT_NE(mono, nullptr) << err;

  // Content pool: puts draw from 12 distinct JPEGs so overwrites actually
  // change bytes and dedup paths get exercised.
  std::vector<std::vector<std::uint8_t>> pool;
  for (int i = 0; i < 12; ++i) pool.push_back(test_jpeg(100 + i, 10 << 10));

  std::map<std::string, std::vector<std::uint8_t>> model;
  lepton::util::Rng rng(4242);
  const int kOps = 240;
  int killed = -1;
  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    if (op == kOps / 3) {
      killed = 1;
      ASSERT_TRUE(sharded->kill_shard(killed));
      EXPECT_FALSE(sharded->shard_alive(killed));
    }
    if (op == 2 * kOps / 3) {
      ASSERT_TRUE(sharded->restart_shard(killed, &err)) << err;
      EXPECT_TRUE(sharded->shard_alive(killed));
      killed = -1;
    }
    std::string key = "k" + std::to_string(
        static_cast<int>(rng.uniform() * 40) % 40);
    double dice = rng.uniform();
    if (dice < 0.45) {  // put or overwrite
      const std::vector<std::uint8_t>& content =
          pool[static_cast<std::size_t>(rng.uniform() * pool.size()) %
               pool.size()];
      ls::ShardedPutStats ps =
          sharded->put(key, {content.data(), content.size()});
      if (ps.durable.acknowledged) {
        model[key] = content;
        ASSERT_TRUE(
            mono->put(key, {content.data(), content.size()}).acknowledged);
      } else {
        // Only a dead shard may refuse, and it must say so.
        EXPECT_EQ(ps.shard, killed);
        EXPECT_EQ(ps.durable.code, ExitCode::kServerShutdown);
      }
    } else {  // get
      lepton::Result rs;
      bool known_sharded = sharded->get(key, &rs);
      auto it = model.find(key);
      if (it == model.end()) {
        // Never in the fleet — unless its shard is down, in which case
        // absence must NOT be claimed.
        if (known_sharded) {
          EXPECT_EQ(rs.code, ExitCode::kServerShutdown);
        }
        continue;
      }
      ASSERT_TRUE(known_sharded) << "acknowledged key vanished: " << key;
      if (rs.code == ExitCode::kServerShutdown) {
        EXPECT_EQ(sharded->shard_of(key), killed)
            << "healthy shard classified unavailable";
        continue;
      }
      ASSERT_TRUE(rs.ok()) << rs.message;
      EXPECT_EQ(rs.data, it->second) << "sharded bytes diverged from model";
      lepton::Result rm;
      ASSERT_TRUE(mono->get(key, &rm));
      ASSERT_TRUE(rm.ok());
      EXPECT_EQ(rs.data, rm.data) << "sharded vs single store divergence";
    }
  }

  // Post-fuzz audit: every model key readable byte-identical through the
  // sharded store (all shards are back), then fsck every root.
  for (const auto& [key, bytes] : model) {
    lepton::Result r;
    ASSERT_TRUE(sharded->get(key, &r)) << key;
    ASSERT_TRUE(r.ok()) << key << ": " << r.message;
    EXPECT_EQ(r.data, bytes) << key;
  }
  ls::ShardedStoreStats st = sharded->stats();
  EXPECT_EQ(st.gets_failed, 0u);
  EXPECT_EQ(st.shard_kills, 1u);
  EXPECT_EQ(st.shard_restarts, 1u);
  sharded.reset();  // release journals before offline fsck
  for (const auto& sh : cfg.shards) {
    ls::FsckReport rep = ls::DurableStore::fsck(sh.root, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_TRUE(rep.ok()) << sh.root << " lost " << rep.lost << " keys";
  }
}

TEST(ShardedStore, RoutingMatchesRingAndContains) {
  ls::ShardedStoreConfig cfg = sharded_config("route", 3, 0);
  std::string err;
  auto s = ls::ShardedStore::open(cfg, &err);
  ASSERT_NE(s, nullptr) << err;
  std::vector<std::uint8_t> jpeg = test_jpeg(7);
  for (int k = 0; k < 24; ++k) {
    std::string key = "r" + std::to_string(k);
    ls::ShardedPutStats ps = s->put(key, {jpeg.data(), jpeg.size()});
    ASSERT_TRUE(ps.durable.acknowledged);
    EXPECT_EQ(ps.shard, s->shard_of(key));
    EXPECT_TRUE(s->contains(key));
    // The key must live on exactly the shard the ring names.
    for (int sh = 0; sh < 3; ++sh) {
      auto keys = s->shard_keys(sh);
      bool found = std::find(keys.begin(), keys.end(), key) != keys.end();
      EXPECT_EQ(found, sh == ps.shard) << key << " on shard " << sh;
    }
  }
  EXPECT_FALSE(s->contains("never-put"));
}

TEST(ShardedStore, AddShardMigratesExactlyTheRemappedKeys) {
  ls::ShardedStoreConfig cfg = sharded_config("grow", 3, 0);
  std::string err;
  auto s = ls::ShardedStore::open(cfg, &err);
  ASSERT_NE(s, nullptr) << err;
  std::vector<std::vector<std::uint8_t>> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(test_jpeg(200 + i, 9 << 10));
  std::map<std::string, const std::vector<std::uint8_t>*> model;
  for (int k = 0; k < 90; ++k) {
    std::string key = "g" + std::to_string(k);
    const auto& content = pool[k % pool.size()];
    ASSERT_TRUE(s->put(key, {content.data(), content.size()})
                    .durable.acknowledged);
    model[key] = &content;
  }
  std::vector<int> before;
  for (const auto& [key, _] : model) before.push_back(s->shard_of(key));

  ls::ShardBackendConfig fresh;
  fresh.name = "shard-new";
  fresh.root = fresh_root("grow_new");
  ASSERT_TRUE(s->add_shard(fresh, &err)) << err;

  // Exactly the remapped keys changed owner, all of them to the new shard,
  // and every key still reads back byte-identical.
  int moved = 0, idx = 0, fresh_id = static_cast<int>(s->shard_count()) - 1;
  for (const auto& [key, content] : model) {
    int now = s->shard_of(key);
    if (now != before[idx++]) {
      EXPECT_EQ(now, fresh_id);
      ++moved;
    }
    lepton::Result r;
    ASSERT_TRUE(s->get(key, &r)) << key;
    ASSERT_TRUE(r.ok()) << key << ": " << r.message;
    EXPECT_EQ(r.data, *content) << key;
  }
  ls::ShardedStoreStats st = s->stats();
  EXPECT_EQ(st.migrated_objects, static_cast<std::uint64_t>(moved));
  EXPECT_EQ(st.migrate_read_errors, 0u);
  EXPECT_GT(moved, 0) << "a 3->4 growth that migrates nothing is broken";
}

// ---- decode cache: unit invariants ------------------------------------------

ls::DecodeCache::Value make_value(std::size_t bytes, std::uint8_t fill) {
  return std::make_shared<const std::vector<std::uint8_t>>(bytes, fill);
}

TEST(DecodeCache, LruEvictionRespectsByteBudgetAndCounters) {
  ls::DecodeCacheConfig cfg;
  cfg.budget_bytes = 10 << 10;
  cfg.max_entry_bytes = 4 << 10;
  ls::DecodeCache cache(cfg);
  // a, b, c fit (3 x 3 KiB = 9 KiB); touching a then inserting d (3 KiB)
  // must evict b — the least recently used — not a.
  cache.put("md5-a", make_value(3 << 10, 'a'));
  cache.put("md5-b", make_value(3 << 10, 'b'));
  cache.put("md5-c", make_value(3 << 10, 'c'));
  ASSERT_NE(cache.get("md5-a"), nullptr);
  cache.put("md5-d", make_value(3 << 10, 'd'));
  EXPECT_EQ(cache.get("md5-b"), nullptr) << "LRU tail survived eviction";
  EXPECT_NE(cache.get("md5-a"), nullptr);
  EXPECT_NE(cache.get("md5-c"), nullptr);
  EXPECT_NE(cache.get("md5-d"), nullptr);

  ls::DecodeCacheStats st = cache.stats();
  EXPECT_LE(st.bytes, cfg.budget_bytes);
  EXPECT_EQ(st.entries, 3u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.gets, st.hits + st.misses) << "counters must reconcile";

  // Oversize values are rejected outright, never evict the working set.
  cache.put("md5-huge", make_value(5 << 10, 'h'));
  EXPECT_EQ(cache.get("md5-huge"), nullptr);
  st = cache.stats();
  EXPECT_EQ(st.rejected_oversize, 1u);
  EXPECT_EQ(st.entries, 3u);

  EXPECT_TRUE(cache.invalidate("md5-a"));
  EXPECT_FALSE(cache.invalidate("md5-a"));
  EXPECT_EQ(cache.invalidate_all(), 2u);
  st = cache.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.invalidations, 3u);
}

TEST(DecodeCache, EvictionRespectsBudgetUnderConcurrentHits) {
  // Hammer a tiny cache from several threads with a key population ~4x the
  // budget. A reader holding a Value must see intact bytes even when its
  // entry is evicted mid-read (shared_ptr semantics); the budget and the
  // gets == hits + misses reconciliation must hold at every quiescent
  // point. Run under TSan in CI — that is half the point of this test.
  ls::DecodeCacheConfig cfg;
  cfg.budget_bytes = 64 << 10;
  cfg.max_entry_bytes = 8 << 10;
  ls::DecodeCache cache(cfg);
  const int kThreads = 4;
  const int kKeys = 40;  // 40 x 4 KiB = 160 KiB population vs 64 KiB budget
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lepton::util::Rng rng(900 + t);
      for (int i = 0; i < 4000; ++i) {
        int k = static_cast<int>(rng.uniform() * kKeys) % kKeys;
        std::string md5 = "content-" + std::to_string(k);
        ls::DecodeCache::Value v = cache.get(md5);
        if (v == nullptr) {
          // Value bytes are a function of the key, like a real decode.
          cache.put(md5, make_value(4 << 10,
                                    static_cast<std::uint8_t>('0' + k % 64)));
        } else {
          // Every byte must match the key's content — an entry can never
          // be wrong, only missing.
          for (std::uint8_t b : *v) {
            if (b != static_cast<std::uint8_t>('0' + k % 64)) {
              torn.fetch_add(1);
              break;
            }
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(torn.load(), 0u) << "a cache hit served wrong bytes";
  ls::DecodeCacheStats st = cache.stats();
  EXPECT_LE(st.bytes, cfg.budget_bytes);
  EXPECT_EQ(st.gets, st.hits + st.misses);
  EXPECT_EQ(st.gets, static_cast<std::uint64_t>(kThreads) * 4000u);
  EXPECT_GT(st.evictions, 0u) << "population never pressured the budget";
}

// ---- decode cache: coherence through the sharded store ----------------------

TEST(ShardedStore, CachedReadsAreByteIdenticalAndCountersReconcile) {
  ls::ShardedStoreConfig cfg = sharded_config("cache", 2, 8u << 20);
  std::string err;
  auto s = ls::ShardedStore::open(cfg, &err);
  ASSERT_NE(s, nullptr) << err;
  std::vector<std::vector<std::uint8_t>> jpegs;
  for (int i = 0; i < 8; ++i) jpegs.push_back(test_jpeg(300 + i, 10 << 10));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(s->put("c" + std::to_string(i),
                       {jpegs[i].data(), jpegs[i].size()})
                    .durable.acknowledged);
  }
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      lepton::Result r;
      ls::ShardedGetStats gs;
      ASSERT_TRUE(s->get("c" + std::to_string(i), &r, &gs));
      ASSERT_TRUE(r.ok()) << r.message;
      EXPECT_EQ(r.data, jpegs[i])
          << "round " << round << (gs.cache_hit ? " (cache hit)" : " (miss)")
          << " returned different bytes than the fresh decode";
      EXPECT_EQ(gs.cache_hit, round > 0);
    }
  }
  ls::ShardedStoreStats st = s->stats();
  EXPECT_EQ(st.cache.gets, st.cache.hits + st.cache.misses);
  EXPECT_EQ(st.cache_hits, 16u);  // rounds 1 and 2
  EXPECT_EQ(st.cache.misses, 8u);
  EXPECT_EQ(st.gets, 24u);
}

TEST(ShardedStore, OverwriteInvalidatesTheStaleCacheEntry) {
  ls::ShardedStoreConfig cfg = sharded_config("inval", 2, 8u << 20);
  std::string err;
  auto s = ls::ShardedStore::open(cfg, &err);
  ASSERT_NE(s, nullptr) << err;
  std::vector<std::uint8_t> v1 = test_jpeg(400, 10 << 10);
  std::vector<std::uint8_t> v2 = test_jpeg(401, 10 << 10);
  ASSERT_TRUE(s->put("k", {v1.data(), v1.size()}).durable.acknowledged);
  lepton::Result r;
  ASSERT_TRUE(s->get("k", &r));  // warm the cache with v1
  ASSERT_EQ(r.data, v1);
  ASSERT_TRUE(s->put("k", {v2.data(), v2.size()}).durable.acknowledged);
  ls::ShardedGetStats gs;
  ASSERT_TRUE(s->get("k", &r, &gs));
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.data, v2) << "stale cached bytes served after an overwrite";
  EXPECT_GE(s->stats().cache.invalidations, 1u);
}

TEST(ShardedStore, ShutoffDrillClearsCacheAndForcesDeflate) {
  ls::ShardedStoreConfig cfg = sharded_config("shutoff", 2, 8u << 20);
  std::string err;
  auto s = ls::ShardedStore::open(cfg, &err);
  ASSERT_NE(s, nullptr) << err;
  std::vector<std::uint8_t> warm = test_jpeg(410, 10 << 10);
  ASSERT_TRUE(s->put("warm", {warm.data(), warm.size()}).durable.acknowledged);
  lepton::Result r;
  ASSERT_TRUE(s->get("warm", &r));
  ASSERT_GT(s->stats().cache.entries, 0u);

  s->set_shutoff(true);
  EXPECT_EQ(s->stats().cache.entries, 0u) << "drill must observe the real "
                                             "uncached path";
  std::vector<std::uint8_t> drill = test_jpeg(411, 10 << 10);
  ls::ShardedPutStats ps = s->put("drill", {drill.data(), drill.size()});
  ASSERT_TRUE(ps.durable.acknowledged);
  EXPECT_EQ(ps.durable.kind, lepton::StorageKind::kDeflate)
      << "shutoff did not reach the shard's codec switch";
  ASSERT_TRUE(s->get("drill", &r));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.data, drill);
  EXPECT_EQ(s->stats().shutoff_drills, 1u);

  s->set_shutoff(false);
  std::vector<std::uint8_t> after = test_jpeg(412, 10 << 10);
  ps = s->put("after", {after.data(), after.size()});
  ASSERT_TRUE(ps.durable.acknowledged);
  EXPECT_NE(ps.durable.kind, lepton::StorageKind::kDeflate)
      << "codec switch stuck after the drill cleared";
}

// ---- decode cache: the serving daemon's DECODE path -------------------------

TEST(ShardedServiceCache, ServerCacheServesByteIdenticalHitsAndCountsThem) {
  lepton::leptond::EventServerConfig cfg;
  cfg.listen = "unix:/tmp/lepton_shardedtest_" + std::to_string(::getpid()) +
               ".sock";
  cfg.service.decode_cache_bytes = 4 << 20;
  lepton::leptond::EventServer srv(std::move(cfg));
  ASSERT_TRUE(srv.start()) << srv.last_error();

  auto jpeg = lepton::corpus::jpeg_of_size(40 << 10, 1017);
  auto cli = lepton::server::LeptonClient::connect(srv.bound_address());
  ASSERT_TRUE(cli.ok()) << cli.message();
  auto enc = cli.encode({jpeg.data(), jpeg.size()});
  ASSERT_TRUE(enc.ok()) << enc.message;

  auto miss = cli.decode({enc.data.data(), enc.data.size()});
  ASSERT_TRUE(miss.ok()) << miss.message;
  EXPECT_EQ(miss.data, jpeg);
  auto hit = cli.decode({enc.data.data(), enc.data.size()});
  ASSERT_TRUE(hit.ok()) << hit.message;
  EXPECT_EQ(hit.data, jpeg) << "cached DECODE served different bytes";

  auto stats = cli.stats();
  ASSERT_TRUE(stats.ok()) << stats.message;
  std::string text(stats.data.begin(), stats.data.end());
  EXPECT_NE(text.find("decode_cache_hits 1"), std::string::npos) << text;
  EXPECT_NE(text.find("decode_cache_misses 1"), std::string::npos) << text;
  srv.stop();
}

// ---- replay generator sanity -----------------------------------------------

TEST(ReplayGen, EmitsAllPutsThenZipfSkewedReadsDeterministically) {
  ls::ReplayConfig cfg;
  cfg.objects = 5000;
  cfg.reads = 20000;
  cfg.seed = 7;
  ls::ReplayGen a(cfg), b(cfg);
  ls::ReplayOp oa, ob;
  std::vector<bool> put_seen(cfg.objects, false);
  std::uint64_t puts = 0, reads = 0, hot_head = 0;
  double last_put_t = -1;
  while (a.next(&oa)) {
    ASSERT_TRUE(b.next(&ob));
    EXPECT_EQ(oa.object, ob.object) << "replay must replay";
    if (oa.kind == ls::ReplayOp::Kind::kPut) {
      EXPECT_FALSE(put_seen[oa.object]) << "object backfilled twice";
      put_seen[oa.object] = true;
      EXPECT_GE(oa.t, last_put_t) << "backfill timestamps must be monotone";
      last_put_t = oa.t;
      EXPECT_EQ(reads, 0u) << "a read before the backfill finished";
      ++puts;
    } else {
      ASSERT_LT(oa.object, cfg.objects);
      if (oa.object < cfg.objects / 100) ++hot_head;
      ++reads;
      EXPECT_LE(oa.t, ls::kWeek);
    }
  }
  EXPECT_FALSE(b.next(&ob));
  EXPECT_EQ(puts, cfg.objects);
  EXPECT_EQ(reads, cfg.reads);
  // Zipf s≈1: the hottest 1% of objects draw a large multiple of their
  // uniform share (1%). Measured ~38% here; 20% is a safe floor that still
  // rules out a uniform sampler.
  EXPECT_GT(static_cast<double>(hot_head) / reads, 0.20);
}

}  // namespace

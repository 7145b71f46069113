// The storage plane under test, in two forms built from one configuration:
//
//   * storage::ShardedStore itself, which the untraced runs drive;
//   * Plane, the benchmark's own composition of the same layers — a
//     HashRing, one DurableStore per shard, a DecodeCache and one
//     FleetClient per shard — called in the order ShardedStore composes
//     them, so that each layer call can be wrapped in a span. serve_large
//     also reads through it, because its reads go to DurableStore::get_object
//     and leptond DECODE rather than through ShardedStore::get.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/decode_cache.h"
#include "storage/durable_store.h"
#include "storage/fleet_client.h"
#include "storage/hash_ring.h"
#include "storage/sharded_store.h"
#include "trace.h"

namespace perfbench {

inline constexpr int kShards = 4;

// FleetClient deadlines, set here as a deployment setting: far above any
// healthy conversion of a file up to 4 MiB, so attempts never time out
// and the number of requests per operation does not follow the box's speed.
inline constexpr std::chrono::milliseconds kFirstDeadline{20000};
inline constexpr std::chrono::milliseconds kRetryDeadline{60000};

lepton::storage::FleetClientConfig fleet_config(const std::string& endpoint,
                                                lepton::storage::FleetOp op);

// 4 shards s0..s3 under `root`, ring defaults, FsyncMode::kBatch, md5
// verify on open, every shard converting through `endpoint`.
lepton::storage::ShardedStoreConfig sharded_config(const std::string& root,
                                                   const std::string& endpoint,
                                                   std::size_t cache_bytes);

struct PlanePut {
  bool acknowledged = false;
  bool passthrough = false;
  bool deduplicated = false;
  std::uint64_t stored = 0;
};

struct PlaneGet {
  bool found = false;
  bool cache_hit = false;
  lepton::util::ExitCode code = lepton::util::ExitCode::kSuccess;
};

class Plane {
 public:
  // Opens every shard (running its recovery). `open_s` receives the summed
  // DurableStore::open time. nullptr with *err set on failure.
  static std::unique_ptr<Plane> open(const lepton::storage::ShardedStoreConfig& cfg,
                                     std::string* err, double* open_s);

  // ShardedStore::put's composition. `buf`/`op_span` are null/-1 untraced.
  PlanePut put(std::string_view key, std::span<const std::uint8_t> file,
               SpanBuffer* buf, int op_span);
  // ShardedStore::get's composition (decode cache, then the owning shard).
  PlaneGet get(std::string_view key, std::vector<std::uint8_t>* out,
               SpanBuffer* buf, int op_span);
  // serve_large's read: DurableStore::get_object, then the stored container
  // streamed through leptond DECODE. An object stored other than as Lepton
  // (a refused or passthrough put) is decoded in process instead.
  PlaneGet get_remote(std::string_view key, std::vector<std::uint8_t>* out,
                      SpanBuffer* buf, int op_span);

  lepton::storage::DecodeCacheStats cache_stats() const;

 private:
  Plane() = default;
  void probe_connect(SpanBuffer* buf, int op_span);

  std::string endpoint_;
  lepton::storage::HashRing ring_;
  std::vector<std::unique_ptr<lepton::storage::DurableStore>> shards_;
  std::vector<std::unique_ptr<lepton::storage::FleetClient>> encoders_;
  std::unique_ptr<lepton::storage::FleetClient> decoder_;
  std::unique_ptr<lepton::storage::DecodeCache> cache_;
};

// Bytes of every file under `dir` (objects, journal, quarantine).
std::uint64_t dir_bytes(const std::string& dir);

}  // namespace perfbench

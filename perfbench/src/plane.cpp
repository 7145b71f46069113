#include "plane.h"

#include <chrono>
#include <filesystem>
#include <system_error>

#include "server/client.h"

namespace perfbench {

namespace st = lepton::storage;
using lepton::util::ExitCode;

st::FleetClientConfig fleet_config(const std::string& endpoint, st::FleetOp op) {
  st::FleetClientConfig fc;
  fc.endpoints = {endpoint};
  fc.op = op;
  fc.first_deadline = kFirstDeadline;
  fc.retry_deadline = kRetryDeadline;
  return fc;
}

st::ShardedStoreConfig sharded_config(const std::string& root,
                                      const std::string& endpoint,
                                      std::size_t cache_bytes) {
  st::ShardedStoreConfig cfg;
  for (int i = 0; i < kShards; ++i) {
    st::ShardBackendConfig sh;
    sh.name = std::string("s").append(std::to_string(i));
    sh.root = root + "/" + sh.name;
    sh.endpoints = {endpoint};
    cfg.shards.push_back(std::move(sh));
  }
  cfg.decode_cache_bytes = cache_bytes;
  cfg.fsync = st::FsyncMode::kBatch;
  cfg.verify_md5_on_open = true;
  cfg.fleet = fleet_config(endpoint, st::FleetOp::kEncode);
  return cfg;
}

std::unique_ptr<Plane> Plane::open(const st::ShardedStoreConfig& cfg,
                                   std::string* err, double* open_s) {
  std::unique_ptr<Plane> p(new Plane());
  p->ring_ = st::HashRing(st::HashRingConfig{cfg.ring_vnodes, cfg.ring_seed});
  p->endpoint_ = cfg.shards.front().endpoints.front();
  double total = 0;
  for (const st::ShardBackendConfig& sh : cfg.shards) {
    // The per-shard settings ShardedStore passes down.
    st::DurableStoreConfig dc;
    dc.root = sh.root;
    dc.fsync = cfg.fsync;
    dc.verify_md5_on_open = cfg.verify_md5_on_open;
    dc.encode = cfg.encode;
    const auto t0 = std::chrono::steady_clock::now();
    auto store = st::DurableStore::open(dc, err);
    total += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();
    if (store == nullptr) return nullptr;
    p->ring_.add_shard(sh.name);
    p->shards_.push_back(std::move(store));
    st::FleetClientConfig fc = cfg.fleet;
    fc.endpoints = sh.endpoints;
    fc.op = st::FleetOp::kEncode;
    p->encoders_.push_back(std::make_unique<st::FleetClient>(std::move(fc)));
  }
  p->decoder_ = std::make_unique<st::FleetClient>(
      fleet_config(p->endpoint_, st::FleetOp::kDecode));
  if (cfg.decode_cache_bytes > 0) {
    st::DecodeCacheConfig cc;
    cc.budget_bytes = cfg.decode_cache_bytes;
    cc.max_entry_bytes = cfg.decode_cache_max_entry_bytes;
    p->cache_ = std::make_unique<st::DecodeCache>(cc);
  }
  if (open_s != nullptr) *open_s = total;
  return p;
}

void Plane::probe_connect(SpanBuffer* buf, int op_span) {
  // FleetClient opens a fresh connection inside every attempt; the traced
  // run times one connect to the same endpoint beside it.
  if (buf == nullptr) return;
  ScopedSpan s(buf, Layer::kConnect, op_span);
  auto cli = lepton::server::LeptonClient::connect(endpoint_);
  s.set(cli.ok() ? 1 : 0);
}

namespace {

std::string cache_key(const std::string& md5, lepton::StorageKind kind) {
  return md5 + "/" + std::string(lepton::storage_kind_name(kind));
}

}  // namespace

PlanePut Plane::put(std::string_view key, std::span<const std::uint8_t> file,
                    SpanBuffer* buf, int op_span) {
  PlanePut out;
  int sid;
  {
    ScopedSpan s(buf, Layer::kRing, op_span);
    sid = ring_.shard_of(key);
  }
  st::DurableStore& store = *shards_[static_cast<std::size_t>(sid)];
  lepton::StorageKind old_kind{};
  std::string old_md5;
  bool had_old;
  {
    ScopedSpan s(buf, Layer::kLookup, op_span);
    had_old = store.lookup(key, &old_kind, &old_md5, nullptr);
  }
  probe_connect(buf, op_span);
  st::RequestTrace tr;
  {
    ScopedSpan s(buf, Layer::kConvert, op_span);
    tr = encoders_[static_cast<std::size_t>(sid)]->convert(st::FleetOp::kEncode,
                                                           file);
    s.set(tr.attempts, static_cast<std::int64_t>(tr.ttfb_s * 1e9));
  }
  lepton::StoredObject obj;
  bool admitted = false;
  if (tr.final_code == ExitCode::kSuccess) {
    ScopedSpan s(buf, Layer::kAdmit, op_span);
    admitted = store.codec().admit_converted(file, std::move(tr.data), &obj);
    s.set(admitted ? 1 : 0);
  }
  if (!admitted) {
    ScopedSpan s(buf, Layer::kPassthrough, op_span);
    obj = store.codec().put_passthrough(file);
    out.passthrough = true;
  }
  st::DurablePutStats dps;
  {
    ScopedSpan s(buf, Layer::kPutObject, op_span);
    dps = store.put_object(key, obj);
    s.set(dps.deduplicated ? 1 : 0, static_cast<std::int64_t>(dps.bytes_stored));
  }
  if (dps.acknowledged && cache_ != nullptr && had_old) {
    std::string now_key = cache_key(dps.md5_hex, dps.kind);
    std::string was_key = cache_key(old_md5, old_kind);
    if (now_key != was_key) cache_->invalidate(was_key);
  }
  out.acknowledged = dps.acknowledged;
  out.deduplicated = dps.deduplicated;
  out.stored = dps.bytes_stored;
  return out;
}

PlaneGet Plane::get(std::string_view key, std::vector<std::uint8_t>* out,
                    SpanBuffer* buf, int op_span) {
  PlaneGet g;
  int sid;
  {
    ScopedSpan s(buf, Layer::kRing, op_span);
    sid = ring_.shard_of(key);
  }
  st::DurableStore& store = *shards_[static_cast<std::size_t>(sid)];
  lepton::StorageKind kind{};
  std::string md5;
  {
    ScopedSpan s(buf, Layer::kLookup, op_span);
    g.found = store.lookup(key, &kind, &md5, nullptr);
  }
  if (!g.found) return g;
  const std::string ck = cache_key(md5, kind);
  if (cache_ != nullptr) {
    st::DecodeCache::Value v;
    {
      ScopedSpan s(buf, Layer::kCacheGet, op_span);
      v = cache_->get(ck);
      s.set(v != nullptr ? 1 : 0);
    }
    if (v != nullptr) {
      out->assign(v->begin(), v->end());
      g.cache_hit = true;
      return g;
    }
  }
  lepton::StoredObject obj;
  {
    ScopedSpan s(buf, Layer::kGetObject, op_span);
    g.found = store.get_object(key, &obj, &g.code);
  }
  if (!g.found || g.code != ExitCode::kSuccess) return g;
  lepton::Result r;
  {
    ScopedSpan s(buf, Layer::kCodecGet, op_span);
    r = store.codec().get(obj);
  }
  g.code = r.code;
  if (!r.ok()) return g;
  if (cache_ != nullptr) {
    ScopedSpan s(buf, Layer::kCachePut, op_span);
    auto shared =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(r.data));
    cache_->put(ck, shared);
    *out = *shared;
  } else {
    *out = std::move(r.data);
  }
  return g;
}

PlaneGet Plane::get_remote(std::string_view key, std::vector<std::uint8_t>* out,
                           SpanBuffer* buf, int op_span) {
  PlaneGet g;
  int sid;
  {
    ScopedSpan s(buf, Layer::kRing, op_span);
    sid = ring_.shard_of(key);
  }
  st::DurableStore& store = *shards_[static_cast<std::size_t>(sid)];
  lepton::StoredObject obj;
  {
    ScopedSpan s(buf, Layer::kGetObject, op_span);
    g.found = store.get_object(key, &obj, &g.code);
  }
  if (!g.found || g.code != ExitCode::kSuccess) return g;
  if (obj.kind != lepton::StorageKind::kLepton) {
    ScopedSpan s(buf, Layer::kCodecGet, op_span);
    lepton::Result r = store.codec().get(obj);
    g.code = r.code;
    *out = std::move(r.data);
    return g;
  }
  probe_connect(buf, op_span);
  ScopedSpan s(buf, Layer::kConvert, op_span);
  st::RequestTrace tr = decoder_->convert(st::FleetOp::kDecode, obj.payload);
  s.set(tr.attempts, static_cast<std::int64_t>(tr.ttfb_s * 1e9));
  g.code = tr.final_code;
  *out = std::move(tr.data);
  return g;
}

st::DecodeCacheStats Plane::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : st::DecodeCacheStats{};
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench

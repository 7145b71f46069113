// Workload definitions and the phases of one run. README.md states why
// each workload exists, its configuration and the layer-to-metric map.
#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "common.h"
#include "daemon.h"
#include "inputs.h"
#include "plane.h"
#include "replay.h"
#include "storage/sharded_store.h"
#include "storage/workload.h"
#include "trace.h"
#include "util/exit_codes.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace st = lepton::storage;
namespace fs = std::filesystem;

// ---- workload definitions ---------------------------------------------------

struct Workload {
  const char* name;
  InputFamily family;
  int clients;           // closed-loop clients in the timed phase
  int populate_clients;  // 0 = the store starts empty
  int gate_clients;      // read-back threads of the correctness gate
  std::size_t cache_bytes;
  bool remote_gets;      // gets are get_object + leptond DECODE
  // Operations per second of --seconds on the reference box (4 vCPU); the
  // op list is sized from it once, so its length depends only on the
  // arguments, never on how fast a run goes.
  double ops_per_second;
};

constexpr std::size_t kMiB = 1u << 20;

const Workload kWorkloads[] = {
    // Puts of paper-sized photos; the store starts empty. The cache serves
    // no timed operation (the gate's read-back only).
    {"ingest_large", InputFamily::kLarge, 2, 0, 2, 64 * kMiB, false, 4.5},
    // Uniform reads of 32 stored photos, each streamed through leptond
    // DECODE; no writes and no cache in the timed phase.
    {"serve_large", InputFamily::kLarge, 1, 2, 2, 64 * kMiB, true, 3.2},
    // The §5.4 weekday mix, 1.5 gets per put, over 384 stored small photos
    // (about 16 MiB decoded) against a 4 MiB cache.
    {"small_zipf", InputFamily::kSmall, 4, 4, 4, 4 * kMiB, false, 160.0},
};

constexpr int kSetups = 15;
constexpr int kServeKeys = 32;
constexpr int kSmallKeys = 384;
constexpr double kZipfS = 0.99;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- the op list -------------------------------------------------------------

struct Item {
  std::uint32_t base = 0;
  std::string key;
};

struct Op {
  OpKind kind = OpKind::kPut;
  std::uint32_t item = 0;
  bool again = false;  // gate: the cached second read of the same key
};

using OpLists = std::vector<std::vector<Op>>;  // one list per client

struct Plan {
  std::vector<Item> items;
  OpLists populate, warmup, timed;
};

std::vector<std::uint32_t> permutation(std::uint32_t n, lepton::util::Rng& rng) {
  std::vector<std::uint32_t> p(n);
  for (std::uint32_t i = 0; i < n; ++i) p[i] = i;
  for (std::uint32_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[static_cast<std::uint32_t>(rng.below(i))]);
  }
  return p;
}

// Deals `items`, ascending by size, to the clients in steps: a step hands
// `clients` neighbouring sizes out, one to each client, and the steps go
// in seeded order. The clients then run in step, and files of one size
// overlap in time on every run (so, e.g., leptond's peak RSS repeats).
// `twice` follows each get with a second read of the same key.
void deal_in_step(const std::vector<std::uint32_t>& items, OpKind kind, bool twice,
                  OpLists* lists, lepton::util::Rng& rng) {
  const std::uint32_t c = static_cast<std::uint32_t>(lists->size());
  const std::uint32_t steps = static_cast<std::uint32_t>((items.size() + c - 1) / c);
  for (std::uint32_t s : permutation(steps, rng)) {
    const std::uint32_t rot = static_cast<std::uint32_t>(rng.below(c));
    for (std::uint32_t k = 0; k < c && s * c + k < items.size(); ++k) {
      auto& l = (*lists)[(k + rot) % c];
      l.push_back({kind, items[s * c + k], false});
      if (twice) l.push_back({kind, items[s * c + k], true});
    }
  }
}

std::uint32_t add_item(Plan* p, std::uint32_t base, std::string key) {
  p->items.push_back({base, std::move(key)});
  return static_cast<std::uint32_t>(p->items.size() - 1);
}

Plan make_plan(const Workload& w, std::uint64_t seed, int seconds,
               std::size_t nbases) {
  Plan p;
  lepton::util::Rng rng(seed);
  p.populate.resize(static_cast<std::size_t>(w.populate_clients));
  p.warmup.resize(static_cast<std::size_t>(w.clients));
  p.timed.resize(static_cast<std::size_t>(w.clients));
  const auto nb = static_cast<std::uint32_t>(nbases);
  const double target_ops = w.ops_per_second * seconds;
  const std::string name = w.name;

  if (name == "ingest_large") {
    // Rounds of one put per base image, dealt in step.
    const int rounds = std::max(1, static_cast<int>(std::lround(target_ops / nb)));
    for (int r = 0; r < rounds; ++r) {
      std::vector<std::uint32_t> round;
      for (std::uint32_t b = 0; b < nb; ++b) {
        round.push_back(add_item(&p, b, "in-" + std::to_string(r) + "-" + std::to_string(b)));
      }
      deal_in_step(round, OpKind::kPut, false, &p.timed, rng);
    }
    for (int c = 0; c < w.clients; ++c) {
      std::uint32_t it = add_item(&p, 0, "warm-" + std::to_string(c));
      p.warmup[static_cast<std::size_t>(c)].push_back({OpKind::kPut, it});
    }
  } else if (name == "serve_large") {
    std::vector<std::uint32_t> keys;
    for (std::uint32_t k = 0; k < kServeKeys; ++k) {
      keys.push_back(add_item(&p, k % nb, "sv-" + std::to_string(k)));
    }
    deal_in_step(keys, OpKind::kPut, false, &p.populate, rng);
    // Uniform reads: rounds that each read every key once, in seeded order.
    const int rounds =
        std::max(1, static_cast<int>(std::lround(target_ops / kServeKeys)));
    for (int r = 0; r < rounds; ++r) {
      for (std::uint32_t k : permutation(kServeKeys, rng)) {
        p.timed[0].push_back({OpKind::kGet, k});
      }
    }
    p.warmup[0] = {{OpKind::kGet, 0}, {OpKind::kGet, 1}};
  } else {  // small_zipf
    // Rank r is key z-r. Its size slot is fixed (not seeded), so the bytes
    // a Zipf-skewed read moves do not depend on the seed.
    for (std::uint32_t r = 0; r < kSmallKeys; ++r) {
      add_item(&p, (r * 13 + 16) % nb, "z-" + std::to_string(r));
    }
    std::vector<std::uint32_t> keys = permutation(kSmallKeys, rng);
    std::stable_sort(keys.begin(), keys.end(), [&](std::uint32_t a, std::uint32_t b) {
      return p.items[a].base < p.items[b].base;
    });
    deal_in_step(keys, OpKind::kPut, false, &p.populate, rng);
    st::ZipfSampler zipf(kSmallKeys, kZipfS);
    // 3 gets per 2 puts: the §5.4 weekday ratio of 1.5.
    static const OpKind kPattern[] = {OpKind::kGet, OpKind::kPut, OpKind::kGet,
                                      OpKind::kGet, OpKind::kPut};
    const int per_client = std::max(
        5, static_cast<int>(std::lround(target_ops / w.clients / 5.0)) * 5);
    for (int c = 0; c < w.clients; ++c) {
      lepton::util::Rng crng(seed * 1000003u + static_cast<std::uint64_t>(c) + 1);
      auto& list = p.timed[static_cast<std::size_t>(c)];
      std::uint32_t puts = 0;
      for (int i = 0; i < per_client; ++i) {
        if (kPattern[i % 5] == OpKind::kGet) {
          list.push_back({OpKind::kGet,
                          static_cast<std::uint32_t>(zipf.sample(crng))});
        } else {
          std::uint32_t base = (puts * 13 + static_cast<std::uint32_t>(c) * 8) % nb;
          std::uint32_t it = add_item(
              &p, base, "np-" + std::to_string(c) + "-" + std::to_string(puts));
          list.push_back({OpKind::kPut, it});
          ++puts;
        }
      }
      std::uint32_t warm = add_item(&p, static_cast<std::uint32_t>(c) % nb,
                                    "wp-" + std::to_string(c));
      p.warmup[static_cast<std::size_t>(c)] = {
          {OpKind::kGet, static_cast<std::uint32_t>(c)}, {OpKind::kPut, warm}};
    }
  }
  return p;
}

// ---- running a phase -----------------------------------------------------------

struct PhaseResult {
  std::vector<OpRecord> ops;
  std::vector<std::uint32_t> acked;  // items whose put was acknowledged
  double wall_s = 0;
  // Until the first client finished its list: the window in which every
  // client is busy, over which MB/s is taken (so the one op a client may
  // have left when another is done does not set the rate).
  double active_s = 0;
  double self_cpu_s = 0;
  double leptond_cpu_s = 0;
  CpuTicks ticks;  // deltas over the phase
};

// Where an operation goes: exactly one of the two stores is set.
struct Target {
  st::ShardedStore* sharded = nullptr;
  Plane* plane = nullptr;
  bool remote_gets = false;
};

class Runner {
 public:
  Runner(const Plan& plan, const InputSet& inputs, std::uint64_t seed)
      : plan_(plan), inputs_(inputs), seed_(seed) {}

  std::vector<std::uint8_t> content(std::uint32_t item) const {
    const Item& it = plan_.items[item];
    return with_comment(inputs_.bases[it.base],
                        "perfbench seed=" + std::to_string(seed_) + " key=" + it.key);
  }

  // Runs one closed loop per list; a client issues its next operation when
  // the previous one returned. `log` non-null = traced.
  PhaseResult run(const OpLists& lists, const Target& t, Daemon* d, Phase phase,
                  TraceLog* log) {
    const std::size_t n = lists.size();
    std::vector<std::vector<OpRecord>> recs(n);
    std::vector<std::vector<std::uint32_t>> acked(n);
    std::vector<std::unique_ptr<SpanBuffer>> bufs(n);
    std::atomic<bool> go{false};
    std::int64_t t0 = 0;  // published to the clients by `go`
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < n; ++c) {
      if (log != nullptr) {
        bufs[c] = std::make_unique<SpanBuffer>(static_cast<int>(c), phase);
      }
      threads.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (std::uint32_t i = 0; i < lists[c].size(); ++i) {
          OpRecord r = one(lists[c][i], i, t, bufs[c].get());
          r.end_s = ms_between(t0, now_ns()) / 1000.0;
          r.client = static_cast<int>(c);
          if (r.kind == OpKind::kPut && r.ok) acked[c].push_back(lists[c][i].item);
          recs[c].push_back(r);
        }
      });
    }
    PhaseResult res;
    const CpuTicks k0 = read_cpu_ticks();
    const double c0 = self_cpu_seconds();
    const double d0 = d != nullptr ? d->cpu_seconds() : 0;
    t0 = now_ns();
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    res.wall_s = ms_between(t0, now_ns()) / 1000.0;
    res.self_cpu_s = self_cpu_seconds() - c0;
    res.leptond_cpu_s = d != nullptr ? d->cpu_seconds() - d0 : 0;
    const CpuTicks k1 = read_cpu_ticks();
    res.ticks.total = k1.total - k0.total;
    res.ticks.busy = k1.busy - k0.busy;
    res.ticks.steal = k1.steal - k0.steal;
    res.active_s = res.wall_s;
    for (std::size_t c = 0; c < n; ++c) {
      if (!recs[c].empty()) res.active_s = std::min(res.active_s, recs[c].back().end_s);
      res.ops.insert(res.ops.end(), recs[c].begin(), recs[c].end());
      res.acked.insert(res.acked.end(), acked[c].begin(), acked[c].end());
      if (log != nullptr) log->absorb(*bufs[c]);
    }
    return res;
  }

 private:
  OpRecord one(const Op& op, std::uint32_t index, const Target& t,
               SpanBuffer* buf) {
    OpRecord r;
    r.kind = op.kind;
    r.again = op.again;
    const std::string& key = plan_.items[op.item].key;
    std::vector<std::uint8_t> bytes = content(op.item);
    r.bytes = bytes.size();
    int root = buf != nullptr
                   ? buf->open(op.kind == OpKind::kPut ? Layer::kOpPut : Layer::kOpGet,
                               -1, index)
                   : -1;
    const std::int64_t t0 = now_ns();
    if (op.kind == OpKind::kPut) {
      if (t.plane != nullptr) {
        PlanePut p = t.plane->put(key, bytes, buf, root);
        r.ok = p.acknowledged;
        r.passthrough = p.passthrough;
        r.dedup = p.deduplicated;
        r.stored = p.stored;
      } else {
        st::ShardedPutStats p = t.sharded->put(key, bytes);
        r.ok = p.durable.acknowledged;
        r.passthrough = p.passthrough;
        r.dedup = p.durable.deduplicated;
        r.stored = p.durable.bytes_stored;
      }
      r.ms = ms_between(t0, now_ns());
      if (buf != nullptr) buf->close(root);
    } else {
      std::vector<std::uint8_t> got;
      bool served = false;
      if (t.plane != nullptr) {
        PlaneGet g = t.remote_gets ? t.plane->get_remote(key, &got, buf, root)
                                   : t.plane->get(key, &got, buf, root);
        served = g.found && g.code == lepton::util::ExitCode::kSuccess;
        r.cache_hit = g.cache_hit;
      } else {
        lepton::Result res;
        st::ShardedGetStats gs;
        served = t.sharded->get(key, &res, &gs) && res.ok();
        r.cache_hit = gs.cache_hit;
        got = std::move(res.data);
      }
      r.ms = ms_between(t0, now_ns());
      if (buf != nullptr) buf->close(root);
      r.ok = served && got == bytes;
    }
    if (buf != nullptr) {
      buf->at(root).a = static_cast<std::int64_t>(r.bytes);
      buf->at(root).b = r.ok ? 1 : 0;
    }
    return r;
  }

  const Plan& plan_;
  const InputSet& inputs_;
  std::uint64_t seed_;
};

// The correctness gate's read-back list: every acknowledged key, read
// twice in a row (the second read must come back from the decode cache
// with the same bytes), dealt in step to `clients`.
OpLists gate_lists(const Plan& plan, std::vector<std::uint32_t> acked, int clients,
                   std::uint64_t seed) {
  std::sort(acked.begin(), acked.end(), [&](std::uint32_t a, std::uint32_t b) {
    return plan.items[a].base != plan.items[b].base
               ? plan.items[a].base < plan.items[b].base
               : a < b;
  });
  OpLists lists(static_cast<std::size_t>(clients));
  lepton::util::Rng rng(seed ^ 0x9a7e);
  deal_in_step(acked, OpKind::kGet, true, &lists, rng);
  return lists;
}

// ---- set-up ------------------------------------------------------------------

struct Stack {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<st::ShardedStore> sharded;
  std::unique_ptr<Plane> plane;
  double setup_s = 0;         // spawn -> first PING answered, plus the open
  double spawn_s = 0;         // the leptond part of setup_s
  double durable_open_s = 0;  // Plane only: summed DurableStore::open

  Target target(bool remote_gets) const {
    Target t;
    t.sharded = sharded.get();
    t.plane = plane.get();
    t.remote_gets = remote_gets;
    return t;
  }
  // Stores close before the daemon stops.
  void close() {
    sharded.reset();
    plane.reset();
    daemon.reset();
  }
};

bool open_stack(const std::string& leptond, const std::string& root,
                std::size_t cache_bytes, bool use_plane, Stack* s,
                std::string* err) {
  const std::int64_t t0 = now_ns();
  s->daemon = Daemon::spawn(leptond, err);
  if (s->daemon == nullptr) return false;
  s->spawn_s = ms_between(t0, now_ns()) / 1000.0;
  st::ShardedStoreConfig cfg =
      sharded_config(root, s->daemon->endpoint(), cache_bytes);
  if (use_plane) {
    s->plane = Plane::open(cfg, err, &s->durable_open_s);
    if (s->plane == nullptr) return false;
  } else {
    s->sharded = st::ShardedStore::open(std::move(cfg), err);
    if (s->sharded == nullptr) return false;
  }
  s->setup_s = ms_between(t0, now_ns()) / 1000.0;
  return true;
}

// Reopens the stores of a stack (running recovery) on its live daemon.
bool reopen_stores(Stack* s, const std::string& root, std::size_t cache_bytes,
                   bool use_plane, std::string* err) {
  s->sharded.reset();
  s->plane.reset();
  st::ShardedStoreConfig cfg =
      sharded_config(root, s->daemon->endpoint(), cache_bytes);
  if (use_plane) {
    s->plane = Plane::open(cfg, err, nullptr);
    return s->plane != nullptr;
  }
  s->sharded = st::ShardedStore::open(std::move(cfg), err);
  return s->sharded != nullptr;
}

// ---- reporting helpers ------------------------------------------------------------

// Wall-clock figures of one op type in one phase, and the same figures in
// host-available time: the hypervisor withheld `stolen` of the CPU time the
// VM wanted during the phase, so wall time is scaled by (1 - stolen). In a
// closed loop on busy CPUs throughput is proportional to the CPU the VM is
// given (Little's law); over the runs measured here this took the
// run-to-run spread of small_zipf's put p50 from 37% to 14% while steal
// moved between 3% and 40%.
// `speed` (kReferenceNominalCpuS / the run's reference_cpu_seconds) then
// takes the figures to the reference's nominal CPU speed.
struct OpSummary {
  std::size_t n = 0, ok = 0;
  double p50 = 0;
  Tail tail;
  Tail tail_uncapped;
  double mbps = 0;
  double stolen = 0;
  double speed = 1;
  std::uint64_t bytes_ok = 0, stored_ok = 0;

  double scale() const { return (1.0 - stolen) * speed; }
  double adj_p50() const { return p50 * scale(); }
  double adj_tail() const { return tail.value * scale(); }
  double adj_mbps() const { return mbps / scale(); }
};

OpSummary summarize(const PhaseResult& ph, OpKind kind, double speed = 1) {
  OpSummary s;
  s.stolen = ph.ticks.stolen_share();
  s.speed = speed;
  std::vector<double> ms;
  std::uint64_t active_bytes = 0;
  for (const OpRecord& r : ph.ops) {
    if (r.kind != kind || r.again) continue;
    ++s.n;
    ms.push_back(r.ms);
    if (r.ok) {
      ++s.ok;
      s.bytes_ok += r.bytes;
      s.stored_ok += r.stored;
      if (r.end_s <= ph.active_s) active_bytes += r.bytes;
    }
  }
  s.p50 = median(ms);
  s.tail = tail_of(ms);
  s.tail_uncapped = tail_of(ms, 100);
  s.mbps = ph.active_s > 0 ? static_cast<double>(active_bytes) / 1e6 / ph.active_s : 0;
  return s;
}

std::uint64_t bytes_moved(const PhaseResult& ph) {
  std::uint64_t b = 0;
  for (const OpRecord& r : ph.ops) b += r.ok && !r.again ? r.bytes : 0;
  return b;
}

void tally(const PhaseResult& ph, Report* rep) {
  for (const OpRecord& r : ph.ops) {
    ++rep->attempted;
    if (!r.ok) ++rep->failed;
  }
}

void print_ops(const char* label, const char* phase, const OpSummary& s) {
  std::printf("  %-4s [%s] n=%zu ok=%zu wall: p50=%.3f ms tail=%.3f ms (p%.1f) "
              "uncapped tail=%.3f ms (p%.1f) %.3f MB/s\n",
              label, phase, s.n, s.ok, s.p50, s.tail.value, s.tail.pct,
              s.tail_uncapped.value, s.tail_uncapped.pct, s.mbps);
  std::printf("  %-4s [%s] stolen %.2f%%, speed %.3f -> host-available at nominal speed: "
              "p50=%.3f ms tail=%.3f ms (p%.1f, n=%zu) %.3f MB/s\n",
              label, phase, 100.0 * s.stolen, s.speed, s.adj_p50(), s.adj_tail(),
              s.tail.pct, s.tail.n, s.adj_mbps());
}

// leptond's requests and non-success trailers, from its STATS rows.
void print_server_tally(const char* label, const std::map<std::string, std::string>& stats,
                        std::size_t conversions) {
  auto get = [&](const char* k) -> std::string {
    auto it = stats.find(k);
    return it == stats.end() ? "?" : it->second;
  };
  const std::string requests = get("requests");
  long long retries = requests == "?" ? -1
                                      : std::stoll(requests) -
                                            static_cast<long long>(conversions);
  std::printf("  fleet [%s]: conversions=%zu leptond_requests=%s retries=%lld", label,
              conversions, requests.c_str(), retries);
  bool any = false;
  for (const auto& [k, v] : stats) {
    if (k.rfind("trailer_code_", 0) == 0 && k != "trailer_code_0") {
      std::printf(" %s=%s", k.c_str(), v.c_str());
      any = true;
    }
  }
  std::printf("%s\n", any ? "" : " refusals=0 timeouts=0");
}

std::size_t count_kind(const PhaseResult& ph, OpKind k, bool remote_gets) {
  std::size_t n = 0;
  for (const OpRecord& r : ph.ops) {
    n += r.kind == k && (k == OpKind::kPut || remote_gets);
  }
  return n;
}

void print_put_facts(const char* phase, const PhaseResult& ph) {
  std::size_t pt = 0, dd = 0;
  for (const OpRecord& r : ph.ops) {
    pt += r.kind == OpKind::kPut && r.passthrough;
    dd += r.kind == OpKind::kPut && r.dedup;
  }
  std::printf("  puts [%s]: passthrough_fallbacks=%zu dedup_puts=%zu\n", phase, pt, dd);
}

void print_host(const PhaseResult& timed, const std::string& root) {
  double steal = timed.ticks.total > 0
                     ? 100.0 * static_cast<double>(timed.ticks.steal) /
                           static_cast<double>(timed.ticks.total)
                     : 0;
  std::printf("host: nproc=%u steal=%.2f%% (%llu of %llu ticks in the timed phase; "
              "%.2f%% of the CPU time wanted) store_fs=%s\n",
              std::thread::hardware_concurrency(), steal,
              static_cast<unsigned long long>(timed.ticks.steal),
              static_cast<unsigned long long>(timed.ticks.total),
              100.0 * timed.ticks.stolen_share(), filesystem_of(root).c_str());
}

// One line per operation of every phase, for analysis beside the report.
bool write_ops(const std::string& path,
               const std::vector<std::pair<const char*, const PhaseResult*>>& phases) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "phase\tclient\tkind\tagain\tms\tend_s\tbytes\tok\tcache_hit\n");
  for (const auto& [name, ph] : phases) {
    for (const OpRecord& r : ph->ops) {
      std::fprintf(f, "%s\t%d\t%s\t%d\t%.6f\t%.6f\t%llu\t%d\t%d\n", name, r.client,
                   r.kind == OpKind::kPut ? "put" : "get", r.again ? 1 : 0, r.ms, r.end_s,
                   static_cast<unsigned long long>(r.bytes), r.ok ? 1 : 0,
                   r.cache_hit ? 1 : 0);
    }
  }
  return std::fclose(f) == 0;
}

void reset_dir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

// ---- per-layer metrics from a traced run -----------------------------------------

// The phase whose spans stand for a layer: the timed phase when it calls
// the layer, else the population (serve_large's puts), else the gate's
// read-back (the get side of ingest_large, the cache on both large
// workloads).
Phase phase_for(const TraceLog& log, Layer l) {
  for (Phase p : {Phase::kTimed, Phase::kPopulate, Phase::kGate}) {
    if (log.count(l, p) > 0) return p;
  }
  return Phase::kTimed;
}

// Per missed read: get_object + TransparentStore::get + DecodeCache::put.
std::vector<double> miss_path_ms(const TraceLog& log, Phase phase) {
  std::vector<double> out;
  for (const TraceLog::Buffer& b : log.buffers) {
    std::map<int, std::int64_t> path_ns;
    std::map<int, bool> missed;
    for (const Span& s : b.spans) {
      if (s.phase != phase || s.parent < 0) continue;
      if (s.layer == Layer::kCacheGet && s.a == 0) missed[s.parent] = true;
      if (s.layer == Layer::kGetObject || s.layer == Layer::kCodecGet ||
          s.layer == Layer::kCachePut) {
        path_ns[s.parent] += s.t1 - s.t0;
      }
    }
    for (const auto& [root, ns] : path_ns) {
      if (missed.count(root) != 0) out.push_back(static_cast<double>(ns) / 1e6);
    }
  }
  return out;
}

void print_layer_table(const TraceLog& log) {
  std::printf("layer self time (ms per call; a layer call has no traced children):\n");
  std::printf("  %-44s %-8s %7s %10s %10s %10s\n", "span", "phase", "n", "p50",
              "p99", "total");
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      std::vector<double> d = log.durations(static_cast<Layer>(l), static_cast<Phase>(p));
      if (d.empty()) continue;
      double total = 0;
      for (double x : d) total += x;
      std::printf("  %-44s %-8s %7zu %10.4f %10.4f %10.1f\n",
                  layer_name(static_cast<Layer>(l)), phase_name(static_cast<Phase>(p)),
                  d.size(), median(d), percentile(d, 99), total);
    }
  }
  std::printf("op residual (traced op time minus its child spans, ms):\n");
  for (Phase p : {Phase::kPopulate, Phase::kTimed, Phase::kGate}) {
    for (Layer root : {Layer::kOpPut, Layer::kOpGet}) {
      std::vector<double> r = residuals(log, root, p);
      if (r.empty()) continue;
      std::vector<double> op = log.durations(root, p);
      std::printf("  %-7s %-8s n=%zu p50=%.4f p99=%.4f max=%.4f (op p50 %.3f)\n",
                  layer_name(root), phase_name(p), r.size(), median(r),
                  percentile(r, 99), *std::max_element(r.begin(), r.end()),
                  median(op));
    }
  }
}

}  // namespace

bool known_workload(const std::string& name) { return find_workload(name) != nullptr; }

bool run_workload(const Args& args, Report* rep, std::string* err) {
  const Workload& w = *find_workload(args.workload);
  const std::string run_root = args.work_dir + "/run/" + w.name;
  reset_dir(run_root);

  std::printf("perfbench %s seed=%llu seconds=%d trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  InputSet inputs = load_inputs(w.family, args.work_dir + "/inputs", err);
  if (inputs.bases.empty()) return false;
  std::printf("inputs: %zu base images %s in %.2f s; sizes", inputs.bases.size(),
              inputs.generated ? "generated" : "loaded", inputs.seconds);
  for (const auto& b : inputs.bases) std::printf(" %zu", b.size());
  std::printf("\n");

  // The CPU-speed reference, taken before the population, before the timed
  // phase and after it; the median sets the run's speed factor.
  std::vector<double> refs = {reference_cpu_seconds()};

  const Plan plan = make_plan(w, args.seed, args.seconds, inputs.bases.size());
  Runner runner(plan, inputs, args.seed);
  std::size_t timed_ops = 0, populate_ops = 0;
  for (const auto& l : plan.timed) timed_ops += l.size();
  for (const auto& l : plan.populate) populate_ops += l.size();
  std::printf("config: clients=%d shards=%d fsync=batch ring_vnodes=128 cache=%zu MiB "
              "fleet_deadline=%lld ms leptond=defaults ops: populate=%zu timed=%zu\n",
              w.clients, kShards, w.cache_bytes / kMiB,
              static_cast<long long>(kFirstDeadline.count()), populate_ops, timed_ops);

  const std::string store_a = run_root + "/a";
  const std::string store_b = run_root + "/b";
  // serve_large reads through the composed plane (get_object + DECODE).
  const bool plane_untraced = w.remote_gets;

  // Population of the read workloads: through ShardedStore::put and leptond
  // with this build's encoder. Traced on serve_large, whose puts these are.
  PhaseResult populate;
  TraceLog log;
  double populate_dir_bytes = 0;
  if (w.populate_clients > 0) {
    Stack s;
    const bool traced_populate = args.trace && w.remote_gets;
    if (!open_stack(args.leptond, store_a, w.cache_bytes, traced_populate, &s, err)) {
      return false;
    }
    populate = runner.run(plan.populate, s.target(false), s.daemon.get(), Phase::kPopulate,
                          traced_populate ? &log : nullptr);
    tally(populate, rep);
    std::map<std::string, std::string> stats = s.daemon->stats();
    s.close();
    populate_dir_bytes = static_cast<double>(dir_bytes(store_a));
    print_server_tally("populate", stats, populate.ops.size());
    if (args.trace && !w.remote_gets) {
      std::error_code ec;
      fs::copy(store_a, store_b, fs::copy_options::recursive, ec);
      if (ec) {
        *err = "cannot copy the populated store: " + ec.message();
        return false;
      }
    }
  }

  // Set-up, repeated; the median is setup_s. Untraced runs keep the last
  // stack for the timed phase.
  std::vector<double> setups, spawns, opens;
  Stack live;
  const CpuTicks setup_k0 = read_cpu_ticks();
  for (int i = 0; i < kSetups; ++i) {
    Stack s;
    const bool use_plane = args.trace || plane_untraced;
    if (!open_stack(args.leptond, store_a, w.cache_bytes, use_plane, &s, err)) {
      return false;
    }
    setups.push_back(s.setup_s);
    spawns.push_back(s.spawn_s);
    opens.push_back(s.durable_open_s);
    if (i + 1 == kSetups && !args.trace) {
      live = std::move(s);
    } else {
      s.close();
    }
  }
  const CpuTicks setup_k1 = read_cpu_ticks();
  CpuTicks setup_ticks;
  setup_ticks.busy = setup_k1.busy - setup_k0.busy;
  setup_ticks.steal = setup_k1.steal - setup_k0.steal;
  const double setup_stolen = setup_ticks.stolen_share();
  std::printf("setup: median %.5f s over %d (spawn leptond -> first PING + store open; "
              "median spawn part %.5f s); stolen %.2f%% -> host-available %.5f s:",
              median(setups), kSetups, median(spawns), 100.0 * setup_stolen,
              median(setups) * (1.0 - setup_stolen));
  for (double x : setups) std::printf(" %.5f", x);
  std::printf("\n");

  if (args.trace) {
    // The untraced pass the tracing overhead is measured against.
    if (!open_stack(args.leptond, store_a, w.cache_bytes, plane_untraced, &live, err)) {
      return false;
    }
  }
  refs.push_back(reference_cpu_seconds());
  PhaseResult warm = runner.run(plan.warmup, live.target(w.remote_gets),
                                live.daemon.get(), Phase::kTimed, nullptr);
  tally(warm, rep);
  PhaseResult timed = runner.run(plan.timed, live.target(w.remote_gets),
                                 live.daemon.get(), Phase::kTimed, nullptr);
  tally(timed, rep);
  const double rss = live.daemon->peak_rss_mib();
  std::map<std::string, std::string> timed_stats = live.daemon->stats();
  refs.push_back(reference_cpu_seconds());
  const double speed = kReferenceNominalCpuS / median(refs);
  std::printf("reference: zlib CPU %.3f %.3f %.3f s (nominal %.2f) -> speed factor %.3f\n",
              refs[0], refs[1], refs[2], kReferenceNominalCpuS, speed);

  std::printf("timed phase: %.3f s wall, bench cpu %.3f s, leptond cpu %.3f s\n",
              timed.wall_s, timed.self_cpu_s, timed.leptond_cpu_s);
  print_host(timed, store_a);
  print_server_tally("timed", timed_stats,
                     count_kind(timed, OpKind::kPut, false) +
                         count_kind(timed, OpKind::kGet, w.remote_gets) +
                         count_kind(warm, OpKind::kPut, false) +
                         count_kind(warm, OpKind::kGet, w.remote_gets));
  if (timed.ops.size() != timed_ops) {
    *err = "timed phase lost operations";
    return false;
  }

  // Traced pass: a fresh leptond (its STATS then cover exactly this pass)
  // and the composed plane on its own copy of the store.
  PhaseResult traced;
  std::map<std::string, std::string> traced_stats;
  st::DecodeCacheStats traced_cache;
  double traced_dir0 = 0, traced_dir1 = 0;
  std::string gate_root = store_a;
  if (args.trace) {
    live.close();
    const std::string root = w.remote_gets ? store_a : store_b;
    gate_root = root;
    if (!open_stack(args.leptond, root, w.cache_bytes, true, &live, err)) return false;
    traced_dir0 = static_cast<double>(dir_bytes(root));
    traced = runner.run(plan.timed, live.target(w.remote_gets), live.daemon.get(),
                        Phase::kTimed, &log);
    tally(traced, rep);
    traced_dir1 = static_cast<double>(dir_bytes(root));
    traced_stats = live.daemon->stats();
    traced_cache = live.plane->cache_stats();
  }

  // Correctness gate: close, reopen through recovery, read back every
  // acknowledged put twice (the second read from the cache).
  // (In a traced run the gate reads the traced pass's store, which the
  // untraced pass and its warm-up never wrote.)
  std::vector<std::uint32_t> acked = populate.acked;
  if (!args.trace) acked.insert(acked.end(), warm.acked.begin(), warm.acked.end());
  const PhaseResult& last = args.trace ? traced : timed;
  acked.insert(acked.end(), last.acked.begin(), last.acked.end());
  if (!reopen_stores(&live, gate_root, w.cache_bytes, args.trace, err)) return false;
  PhaseResult gate = runner.run(gate_lists(plan, acked, w.gate_clients, args.seed),
                                live.target(false),
                                nullptr, Phase::kGate, args.trace ? &log : nullptr);
  tally(gate, rep);
  st::DecodeCacheStats gate_cache =
      live.plane != nullptr ? live.plane->cache_stats() : live.sharded->stats().cache;
  std::size_t second_hits = 0;
  for (const OpRecord& r : gate.ops) second_hits += r.again && r.cache_hit;
  live.close();
  std::printf("gate: reopened, read back %zu acknowledged keys twice: %zu failed, "
              "%zu second reads from cache\n",
              acked.size(), static_cast<std::size_t>(std::count_if(
                                gate.ops.begin(), gate.ops.end(),
                                [](const OpRecord& r) { return !r.ok; })),
              second_hits);

  // ---- end-to-end view --------------------------------------------------------
  const std::string name = w.name;
  const PhaseResult& put_ph = name == "serve_large" ? populate : timed;
  const PhaseResult& get_ph = name == "ingest_large" ? gate : timed;
  const char* put_label = name == "serve_large" ? "populate" : "timed";
  const char* get_label = name == "ingest_large" ? "gate" : "timed";
  OpSummary puts = summarize(put_ph, OpKind::kPut, speed);
  OpSummary gets = summarize(get_ph, OpKind::kGet, speed);
  std::printf("end to end:\n");
  print_ops("put", put_label, puts);
  print_ops("get", get_label, gets);
  print_put_facts(put_label, put_ph);
  std::size_t hits = 0, timed_gets = 0;
  for (const OpRecord& r : timed.ops) {
    timed_gets += r.kind == OpKind::kGet;
    hits += r.kind == OpKind::kGet && r.cache_hit;
  }
  std::printf("  timed-phase cache hits: %zu of %zu gets\n", hits, timed_gets);

  const double moved_mb = static_cast<double>(bytes_moved(timed)) / 1e6;
  const double cpu_ms_per_mb =
      moved_mb > 0 ? (timed.self_cpu_s + timed.leptond_cpu_s) * 1000.0 / moved_mb : 0;
  const double stored_ratio =
      puts.bytes_ok > 0 ? static_cast<double>(puts.stored_ok) /
                              static_cast<double>(puts.bytes_ok)
                        : 0;
  const double fail_frac = rep->attempted > 0 ? static_cast<double>(rep->failed) /
                                                    static_cast<double>(rep->attempted)
                                              : 0;
  std::printf("  cpu_ms_per_MB=%.3f (at nominal speed %.3f)\n", cpu_ms_per_mb,
              cpu_ms_per_mb * speed);
  std::printf("  fail_frac=%.6f (%llu of %llu ops, all phases)\n", fail_frac,
              static_cast<unsigned long long>(rep->failed),
              static_cast<unsigned long long>(rep->attempted));
  rep->correct = rep->failed == 0;
  write_ops(args.work_dir + "/ops-" + w.name + "-s" + std::to_string(args.seed) + ".tsv",
            {{"populate", &populate}, {"timed", &timed}, {"gate", &gate}});

  if (!args.trace) {
    rep->metrics = {
        {"setup_s", median(setups) * (1.0 - setup_stolen) * speed, "s"},
        {"put_MBps", puts.adj_mbps(), "MB/s"},
        {"get_MBps", gets.adj_mbps(), "MB/s"},
        {"put_p50_ms", puts.adj_p50(), "ms"},
        {"put_tail_ms", puts.adj_tail(), "ms"},
        {"get_p50_ms", gets.adj_p50(), "ms"},
        {"get_tail_ms", gets.adj_tail(), "ms"},
        {"stored_ratio", stored_ratio, "ratio"},
        {"cpu_ms_per_MB", cpu_ms_per_mb * speed, "ms/MB"},
        {"leptond_rss_mib", rss, "MiB"},
    };
    return true;
  }

  // ---- per-layer view (traced run) -------------------------------------------------
  // Tracing overhead: the traced pass against the untraced one, same ops.
  std::printf("tracing overhead (traced p50 / untraced p50 - 1, timed phase):");
  for (OpKind k : {OpKind::kPut, OpKind::kGet}) {
    OpSummary u = summarize(timed, k), t = summarize(traced, k);
    if (u.n == 0) continue;
    std::printf(" %s %+.2f%% (%.3f vs %.3f ms)", k == OpKind::kPut ? "put" : "get",
                100.0 * (t.p50 / u.p50 - 1.0), t.p50, u.p50);
  }
  std::printf("\n");
  print_layer_table(log);

  // Codec replay: one operation per distinct base image in the timed list
  // (operations differ from it only by their COM segment), one at a time.
  std::vector<bool> seen(inputs.bases.size(), false);
  std::vector<ReplaySample> replay;
  std::map<unsigned, std::size_t> refused;
  for (const auto& list : plan.timed) {
    for (const Op& op : list) {
      std::uint32_t b = plan.items[op.item].base;
      if (seen[b]) continue;
      seen[b] = true;
      replay.push_back(replay_one(runner.content(op.item)));
      if (replay.back().refused_code != 0) ++refused[replay.back().refused_code];
      if (replay.back().refused_code == 0 && !replay.back().roundtrip_ok) {
        ++rep->failed;
        rep->correct = false;
      }
    }
  }
  std::vector<double> enc, dec, parse, hdec, henc, cenc, cdec, segs;
  for (const ReplaySample& r : replay) {
    if (r.refused_code != 0) continue;
    enc.push_back(r.encode_ms);
    dec.push_back(r.decode_ms);
    parse.push_back(r.parse_ms);
    hdec.push_back(r.huffman_decode_ms);
    henc.push_back(r.huffman_encode_ms);
    cenc.push_back(r.encode_ms - r.parse_ms - r.huffman_decode_ms);
    cdec.push_back(r.decode_ms - r.huffman_encode_ms);
    segs.push_back(r.segments);
  }
  std::printf("codec replay: %zu files, refused:", replay.size());
  if (refused.empty()) std::printf(" none");
  for (const auto& [code, n] : refused) {
    std::printf(" lepton.refused_%u (%s)=%zu", code,
                std::string(lepton::util::exit_code_name(
                                static_cast<lepton::util::ExitCode>(code)))
                    .c_str(),
                n);
  }
  std::printf("\n");

  auto stat_ms = [&](const char* k) {
    auto it = traced_stats.find(k);
    return it == traced_stats.end() ? 0.0 : std::stod(it->second);
  };
  const Phase conv_ph = phase_for(log, Layer::kConvert);
  std::vector<double> conv = log.durations(Layer::kConvert, conv_ph);
  double attempts = 0;
  std::vector<double> ttfb;
  for (const TraceLog::Buffer& b : log.buffers) {
    for (const Span& s : b.spans) {
      if (s.layer == Layer::kConvert && s.phase == conv_ph) {
        attempts += static_cast<double>(s.a);
        ttfb.push_back(static_cast<double>(s.b) / 1e6);
      }
    }
  }
  const Phase put_side = phase_for(log, Layer::kPutObject);
  std::size_t passthrough = log.count(Layer::kPassthrough, put_side);
  std::size_t admit_failed = log.durations(Layer::kAdmit, phase_for(log, Layer::kAdmit), 0).size();
  std::size_t dedup = log.durations(Layer::kPutObject, put_side, 1).size();
  double user_bytes = 0;
  for (const TraceLog::Buffer& b : log.buffers) {
    for (const Span& s : b.spans) {
      if (s.layer == Layer::kOpPut && s.phase == put_side && s.b == 1) {
        user_bytes += static_cast<double>(s.a);
      }
    }
  }
  const double written = put_side == Phase::kPopulate ? populate_dir_bytes
                                                      : traced_dir1 - traced_dir0;
  const Phase cache_ph = phase_for(log, Layer::kCacheGet);
  const std::size_t cache_gets = log.count(Layer::kCacheGet, cache_ph);
  const std::size_t cache_hits = log.durations(Layer::kCacheGet, cache_ph, 1).size();
  const st::DecodeCacheStats& cstats =
      cache_ph == Phase::kTimed ? traced_cache : gate_cache;
  const double traced_mb = static_cast<double>(bytes_moved(traced)) / 1e6;
  const double request_p50 = stat_ms("request_p50_ms");
  const double server_codec_p50 =
      w.remote_gets ? median(dec) : median(enc);

  auto p50 = [&](Layer l, int a = -1) {
    return median(log.durations(l, phase_for(log, l), a));
  };
  rep->metrics = {
      {"storage.fleet_convert_ms", median(conv), "ms"},
      {"storage.fleet_attempts_per_op",
       conv.empty() ? 0 : attempts / static_cast<double>(conv.size()), "ratio"},
      {"storage.fleet_passthrough", static_cast<double>(passthrough), "count"},
      {"storage.fleet_connect_ms", p50(Layer::kConnect), "ms"},
      {"server.request_p50_ms", request_p50, "ms"},
      {"server.request_p99_ms", stat_ms("request_p99_ms"), "ms"},
      {"server.wait_ms", median(conv) - request_p50, "ms"},
      {"server.overhead_ms", request_p50 - server_codec_p50, "ms"},
      {"server.ttfb_ms", median(ttfb), "ms"},
      {"server.in_flight_peak", stat_ms("in_flight_peak"), "count"},
      {"leptond.cpu_ms_per_MB",
       traced_mb > 0 ? traced.leptond_cpu_s * 1000.0 / traced_mb : 0, "ms/MB"},
      {"lepton.encode_ms", median(enc), "ms"},
      {"lepton.decode_ms", median(dec), "ms"},
      {"lepton.segments_mean", mean(segs), "count"},
      {"lepton.refused", static_cast<double>(replay.size() - enc.size()), "count"},
      {"lepton.admit_ms", p50(Layer::kAdmit), "ms"},
      {"lepton.admit_failed", static_cast<double>(admit_failed), "count"},
      {"jpeg.parse_ms", median(parse), "ms"},
      {"jpeg.huffman_decode_ms", median(hdec), "ms"},
      {"jpeg.huffman_encode_ms", median(henc), "ms"},
      {"model.coder_encode_ms", median(cenc), "ms"},
      {"model.coder_decode_ms", median(cdec), "ms"},
      {"storage.ring_ms", p50(Layer::kRing), "ms"},
      {"storage.durable_lookup_ms", p50(Layer::kLookup), "ms"},
      {"storage.durable_commit_ms", p50(Layer::kPutObject), "ms"},
      {"storage.durable_commit_p99_ms",
       percentile(log.durations(Layer::kPutObject, put_side), 99), "ms"},
      {"storage.durable_read_ms", p50(Layer::kGetObject), "ms"},
      {"storage.durable_bytes_per_user_byte", user_bytes > 0 ? written / user_bytes : 0,
       "ratio"},
      {"storage.durable_dedup_puts", static_cast<double>(dedup), "count"},
      {"storage.durable_open_s", median(opens), "s"},
      {"storage.cache_hit_rate",
       cache_gets > 0 ? static_cast<double>(cache_hits) / static_cast<double>(cache_gets)
                      : 0,
       "ratio"},
      {"storage.cache_evictions", static_cast<double>(cstats.evictions), "count"},
      {"storage.cache_hit_ms", p50(Layer::kCacheGet, 1), "ms"},
      {"storage.cache_miss_ms", median(miss_path_ms(log, cache_ph)), "ms"},
  };
  std::printf("per-layer sources: convert=%s put-side=%s cache=%s\n",
              phase_name(conv_ph), phase_name(put_side), phase_name(cache_ph));

  const std::string span_file = args.work_dir + "/trace-" + w.name + "-s" +
                                std::to_string(args.seed) + ".tsv";
  if (log.write_tsv(span_file)) {
    std::printf("spans: %s\n", span_file.c_str());
  }
  return true;
}

}  // namespace perfbench

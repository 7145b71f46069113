// Chaos soak: the self-healing fleet client under deliberate hostility.
//
//   ./chaos_fleet [--seed N] [--seconds N]
//
// Three event-plane daemons come up on local TCP ports and a FleetClient
// (breakers + backoff + least-in-flight routing) puts a deterministic
// corpus through them while a chaos thread misbehaves:
//
//   * daemons are hard-killed (shutdown_now: in-flight requests trail as
//     kServerShutdown) and restarted on their original ports, each restart
//     followed by a probe_now() pass beside the traffic;
//   * a failpoint schedule (util/failpoint.h), seeded from --seed, injects
//     refused connects, short writes that kill frames mid-flight, and slow
//     encodes — the per-site fault sequences replay exactly from the seed;
//   * one RLIMIT_NOFILE squeeze starves both accept4 (the EMFILE backoff
//     path) and the client's own connects.
//
// The soak asserts the paper's §4/§5.7 posture end to end: every put()
// lands — converted objects pass the round-trip admission gate, everything
// else degrades to a byte-identical pass-through — and get() returns the
// original bytes for *all* of them. Any corrupted round trip, unserved
// put, or unbounded latency exits nonzero.
//
// Phase 0, before the soak: the durable-store drill. A forked child runs
// its own daemons + FleetClient and commits every put into a
// storage::DurableStore, logging an ack line per acknowledged commit; the
// parent SIGKILLs the whole child — daemons, client, and the storing
// process die together mid-traffic — then fscks the store and proves zero
// acknowledged loss and byte-identical reads for every acked key.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>

#include "corpus/corpus.h"
#include "lepton/context.h"
#include "lepton/store.h"
#include "leptond/event_server.h"
#include "storage/durable_store.h"
#include "storage/fleet_client.h"
#include "util/failpoint.h"
#include "util/fileio.h"
#include "util/md5.h"

namespace {

using lepton::leptond::EventServer;
using lepton::leptond::EventServerConfig;
using lepton::storage::FleetClient;
using lepton::storage::FleetClientConfig;
using lepton::storage::FleetOp;

std::unique_ptr<EventServer> start_daemon(const std::string& listen,
                                          lepton::CodecContext* ctx) {
  EventServerConfig ec;
  ec.listen = listen;
  ec.workers = 2;
  auto srv = std::make_unique<EventServer>(std::move(ec), ctx);
  // A just-killed port can linger briefly even with SO_REUSEADDR (the old
  // acceptor's close races the new bind); retry rather than flake.
  for (int i = 0; i < 100 && !srv->start(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return srv;
}

// ---- phase 0: the durable-store drill ---------------------------------------

// Child side: daemons + fleet client + durable store, putting flat out
// until SIGKILLed. One fsynced ack line per acknowledged durable commit.
[[noreturn]] void durable_child(
    std::uint64_t seed, const std::vector<std::vector<std::uint8_t>>& files,
    const std::string& root, const std::string& acklog) {
  lepton::CodecContext ctx(2);
  std::vector<std::unique_ptr<EventServer>> daemons;
  std::vector<std::string> endpoints;
  for (int i = 0; i < 2; ++i) {
    daemons.push_back(start_daemon("tcp:127.0.0.1:0", &ctx));
    if (!daemons.back()->running()) ::_exit(42);
    endpoints.push_back(daemons.back()->bound_address());
  }
  FleetClientConfig fc;
  fc.endpoints = endpoints;
  fc.max_attempts = 3;
  fc.breaker_cooldown = std::chrono::milliseconds(100);
  fc.seed = seed;
  FleetClient fleet(fc);

  lepton::storage::DurableStoreConfig dc;
  dc.root = root;
  std::string err;
  auto store = lepton::storage::DurableStore::open(std::move(dc), &err);
  if (store == nullptr) ::_exit(42);
  int ack_fd = ::open(acklog.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (ack_fd < 0) ::_exit(42);

  // A mini chaos plane of our own: one daemon dies mid-traffic, so some
  // commits land as fleet conversions and some as degraded pass-throughs —
  // both must be equally durable.
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    daemons[0]->shutdown_now();
  });
  killer.detach();

  lepton::TransparentStore codec;
  for (std::uint64_t j = 0; j < 2000; ++j) {
    const auto& jpeg = files[j % files.size()];
    auto pr = fleet.put(codec, {jpeg.data(), jpeg.size()});
    std::string key = "df-" + std::to_string(j);
    auto ps = store->put_object(key, pr.object);
    if (!ps.acknowledged) continue;  // no disk faults armed here; defensive
    std::string line = "ok " + key + "\n";
    if (::write(ack_fd, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      ::_exit(42);
    }
    ::fsync(ack_fd);
  }
  ::_exit(0);
}

// Parent side. Returns 0 when the invariant held.
int durable_phase(std::uint64_t seed,
                  const std::vector<std::vector<std::uint8_t>>& files) {
  std::string base =
      "/tmp/chaos_fleet_durable_" + std::to_string(::getpid());
  std::string root = base + "/store", acklog = base + "/acklog";
  lepton::util::fileio::make_dirs(base);

  pid_t pid = ::fork();
  if (pid == 0) durable_child(seed, files, root, acklog);
  if (pid < 0) {
    std::perror("chaos_fleet: fork");
    return 1;
  }
  // Long enough that daemons are up and commits are flowing, and the
  // child's own daemon-kill has fired; then everything dies at once.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) &&
      !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    std::fprintf(stderr, "chaos_fleet: durable child died abnormally (%d)\n",
                 status);
    return 1;
  }

  // Operator verdict first: fsck must find zero acknowledged loss.
  std::string err;
  auto fsck = lepton::storage::DurableStore::fsck(root, &err);
  if (!err.empty() || !fsck.ok()) {
    std::fprintf(stderr, "chaos_fleet: durable fsck FAILED (lost=%llu) %s\n",
                 static_cast<unsigned long long>(fsck.lost), err.c_str());
    return 1;
  }

  // Every acked key reads back byte-identical to its original.
  lepton::storage::DurableStoreConfig dc;
  dc.root = root;
  auto store = lepton::storage::DurableStore::open(std::move(dc), &err);
  if (store == nullptr) {
    std::fprintf(stderr, "chaos_fleet: durable reopen failed: %s\n",
                 err.c_str());
    return 1;
  }
  std::vector<std::uint8_t> raw;
  lepton::util::fileio::read_file(acklog, &raw);
  std::string text(raw.begin(), raw.end());
  std::uint64_t acked = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn tail: never acked
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.rfind("ok df-", 0) != 0) continue;
    std::uint64_t j = std::strtoull(line.c_str() + 6, nullptr, 10);
    const auto& jpeg = files[j % files.size()];
    lepton::Result r;
    if (!store->get("df-" + std::to_string(j), &r) || !r.ok() ||
        r.data != jpeg) {
      std::fprintf(stderr,
                   "chaos_fleet: durable FAIL: acked df-%llu not byte-"
                   "identical after kill-9\n",
                   static_cast<unsigned long long>(j));
      return 1;
    }
    ++acked;
  }
  std::printf(
      "chaos_fleet: durable phase OK — child SIGKILLed mid-traffic, fsck "
      "clean (%llu objects, %llu quarantined), %llu acked commits verified "
      "byte-identical\n\n",
      static_cast<unsigned long long>(fsck.healthy),
      static_cast<unsigned long long>(fsck.quarantined),
      static_cast<unsigned long long>(acked));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  int seconds = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::atoi(argv[i + 1]);
    }
  }
  std::printf("chaos_fleet: seed=%llu seconds=%d\n",
              static_cast<unsigned long long>(seed), seconds);

  // Deterministic corpus: a few sizes, derived from the seed.
  std::vector<std::vector<std::uint8_t>> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back(
        lepton::corpus::jpeg_of_size((16 + 8 * i) << 10, seed + i));
  }

  // Phase 0 forks, so it must run while this process is still
  // single-threaded — before the CodecContext pool below exists.
  if (int rc = durable_phase(seed, files); rc != 0) {
    std::fprintf(stderr, "chaos_fleet: FAILED (durable phase)\n");
    return rc;
  }

  lepton::CodecContext ctx(4);
  constexpr int kDaemons = 3;
  std::mutex fleet_mu;  // guards the daemons[] slots during kill/restart
  std::vector<std::unique_ptr<EventServer>> daemons;
  std::vector<std::string> endpoints;
  for (int i = 0; i < kDaemons; ++i) {
    daemons.push_back(start_daemon("tcp:127.0.0.1:0", &ctx));
    if (!daemons.back()->running()) {
      std::fprintf(stderr, "chaos_fleet: daemon %d failed to start: %s\n", i,
                   daemons.back()->last_error().c_str());
      return 1;
    }
    endpoints.push_back(daemons.back()->bound_address());
  }

  // The chaos schedule. Every probability draw comes from a per-site PRNG
  // seeded from `seed`, so the fault sequence each site produces is
  // identical run to run.
  std::string spec =
      "seed=" + std::to_string(seed) +
      ";fleet.connect=err:ECONNREFUSED@0.03"
      ";sock.write=short@0.004"
      ";service.encode=delay:5ms@every17";
  std::string err;
  if (!lepton::util::failpoint::arm(spec, &err)) {
    std::fprintf(stderr, "chaos_fleet: bad schedule: %s\n", err.c_str());
    return 1;
  }

  FleetClientConfig cfg;
  cfg.endpoints = endpoints;
  cfg.max_attempts = 4;
  cfg.first_deadline = std::chrono::milliseconds(0);
  cfg.backoff_base = std::chrono::milliseconds(5);
  cfg.backoff_cap = std::chrono::milliseconds(100);
  cfg.breaker_threshold = 3;
  cfg.breaker_cooldown = std::chrono::milliseconds(150);
  cfg.seed = seed;
  FleetClient fleet(cfg);

  lepton::TransparentStore store;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);

  std::atomic<std::uint64_t> puts{0}, passthroughs{0}, corrupted{0};
  std::atomic<double> worst_s{0};
  auto traffic = [&](int worker) {
    for (std::uint64_t n = 0; std::chrono::steady_clock::now() < deadline;
         ++n) {
      const auto& jpeg = files[(n + static_cast<std::uint64_t>(worker)) %
                               files.size()];
      auto t0 = std::chrono::steady_clock::now();
      auto pr = fleet.put(store, {jpeg.data(), jpeg.size()});
      double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      double w = worst_s.load();
      while (s > w && !worst_s.compare_exchange_weak(w, s)) {
      }
      ++puts;
      if (pr.passthrough) ++passthroughs;
      lepton::Result back = store.get(pr.object);
      if (back.code != lepton::util::ExitCode::kSuccess ||
          back.data.size() != jpeg.size() ||
          !std::equal(back.data.begin(), back.data.end(), jpeg.begin())) {
        ++corrupted;
      }
    }
  };
  std::thread t1(traffic, 0), t2(traffic, 1);

  // The chaos plane: kill/restart daemons round-robin; squeeze the fd
  // table once, mid-soak.
  std::thread chaos([&] {
    bool squeezed = false;
    for (int round = 0; std::chrono::steady_clock::now() < deadline;
         ++round) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      if (std::chrono::steady_clock::now() >= deadline) break;
      int victim = round % kDaemons;
      {
        std::lock_guard<std::mutex> lk(fleet_mu);
        daemons[victim]->shutdown_now();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      {
        std::lock_guard<std::mutex> lk(fleet_mu);
        daemons[victim] = start_daemon(endpoints[victim], &ctx);
      }
      // Re-probe beside the traffic: a restarted daemon whose breaker is
      // due closes it on this PING instead of on a request.
      fleet.probe_now();
      if (!squeezed && round == 1) {
        squeezed = true;
        rlimit old{};
        ::getrlimit(RLIMIT_NOFILE, &old);
        rlimit tight = old;
        tight.rlim_cur = 48;  // below what serving traffic needs
        ::setrlimit(RLIMIT_NOFILE, &tight);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        ::setrlimit(RLIMIT_NOFILE, &old);
      }
    }
  });

  t1.join();
  t2.join();
  chaos.join();
  lepton::util::failpoint::disarm();

  auto m = fleet.metrics();
  auto health = fleet.endpoints();
  std::printf("\n%-28s %-9s %8s %8s\n", "ENDPOINT", "BREAKER", "OK", "FAIL");
  for (const auto& h : health) {
    std::printf("%-28s %-9s %8llu %8llu\n", h.endpoint.c_str(),
                lepton::storage::breaker_state_name(h.state),
                static_cast<unsigned long long>(h.successes),
                static_cast<unsigned long long>(h.failures));
  }
  std::printf(
      "\nputs %llu  passthrough %llu  corrupted %llu  worst_put %.2fs\n"
      "requeues %llu  transport_failures %llu  backoff_retries %llu "
      "(%.3fs slept)\n"
      "breaker opens %llu closes %llu half-open probes %llu fast-fails %llu\n"
      "health probes %llu\n",
      static_cast<unsigned long long>(puts.load()),
      static_cast<unsigned long long>(passthroughs.load()),
      static_cast<unsigned long long>(corrupted.load()), worst_s.load(),
      static_cast<unsigned long long>(m.requeues),
      static_cast<unsigned long long>(m.transport_failures),
      static_cast<unsigned long long>(m.backoff_retries), m.backoff_wait_s,
      static_cast<unsigned long long>(m.breaker_opens),
      static_cast<unsigned long long>(m.breaker_closes),
      static_cast<unsigned long long>(m.half_open_probes),
      static_cast<unsigned long long>(m.breaker_fast_fails),
      static_cast<unsigned long long>(m.health_probes));

  // The soak's contract.
  int rc = 0;
  if (corrupted.load() != 0) {
    std::fprintf(stderr, "FAIL: %llu corrupted round trips\n",
                 static_cast<unsigned long long>(corrupted.load()));
    rc = 1;
  }
  if (puts.load() == 0) {
    std::fprintf(stderr, "FAIL: no put() completed\n");
    rc = 1;
  }
  if (m.passthrough_fallbacks != passthroughs.load()) {
    std::fprintf(stderr, "FAIL: passthrough tallies disagree (%llu vs %llu)\n",
                 static_cast<unsigned long long>(m.passthrough_fallbacks),
                 static_cast<unsigned long long>(passthroughs.load()));
    rc = 1;
  }
  if (worst_s.load() > 30.0) {
    std::fprintf(stderr, "FAIL: unbounded tail (worst put %.2fs)\n",
                 worst_s.load());
    rc = 1;
  }
  std::printf("%s\n", rc == 0 ? "chaos_fleet: OK — every byte came back"
                              : "chaos_fleet: FAILED");
  return rc;
}

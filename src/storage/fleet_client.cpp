#include "storage/fleet_client.h"

#include <algorithm>
#include <cstdlib>

#include "server/client.h"

namespace lepton::storage {
namespace {

using util::ExitCode;

// §6.6 requeue rule: server-local conditions earn another server; content
// classifications are properties of the file and never requeue.
bool requeue_worthy(const server::RequestResult& res) {
  return !res.transport_ok || res.code == ExitCode::kTimeout ||
         res.code == ExitCode::kServerShutdown;
}

// Extracts the daemon's "in_flight N" STATS row (docs/PROTOCOL.md). The
// key must match the whole token — "in_flight_peak" is a different row.
bool parse_in_flight(const std::vector<std::uint8_t>& text,
                     std::uint64_t* out) {
  const std::string s(text.begin(), text.end());
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t eol = s.find('\n', pos);
    if (eol == std::string::npos) eol = s.size();
    const std::string line = s.substr(pos, eol - pos);
    pos = eol + 1;
    std::size_t sp = line.find(' ');
    if (sp == std::string::npos || line.substr(0, sp) != "in_flight") {
      continue;
    }
    *out = std::strtoull(line.c_str() + sp + 1, nullptr, 10);
    return true;
  }
  return false;
}

}  // namespace

const char* breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

FleetClient::FleetClient(FleetClientConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed) {
  peers_.reserve(cfg_.endpoints.size());
  for (const std::string& ep : cfg_.endpoints) {
    Peer p;
    p.endpoint = ep;
    peers_.push_back(std::move(p));
  }
  if (cfg_.max_attempts < 1) cfg_.max_attempts = 1;
  if (cfg_.breaker_threshold < 1) cfg_.breaker_threshold = 1;
}

FleetClient::~FleetClient() { stop(); }

void FleetClient::start() {
  if (!cfg_.background_probe || prober_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    prober_stop_ = false;
  }
  prober_ = std::thread(&FleetClient::prober_main, this);
}

void FleetClient::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

void FleetClient::prober_main() {
  for (;;) {
    std::chrono::milliseconds wait;
    {
      std::unique_lock<std::mutex> lk(mu_);
      // Jittered interval, drawn from the client seed: a fleet of these
      // clients probing N daemons must not thundering-herd on one tick.
      double f = 1.0 + cfg_.probe_jitter * (rng_.uniform() * 2.0 - 1.0);
      wait = std::chrono::milliseconds(static_cast<std::int64_t>(
          std::max(1.0, static_cast<double>(cfg_.probe_interval.count()) * f)));
      if (prober_cv_.wait_for(lk, wait, [&] { return prober_stop_; })) {
        return;
      }
    }
    probe_now();
  }
}

int FleetClient::probe_now() {
  // Snapshot who needs what under the lock; converse off it.
  struct Job {
    std::size_t ix;
    bool half_open;  // PING probe; else a closed-peer STATS poll
  };
  std::vector<Job> jobs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      Peer& p = peers_[i];
      if (p.state == BreakerState::kOpen && now >= p.open_until) {
        p.state = BreakerState::kHalfOpen;
        p.half_open_busy = false;
      }
      if (p.state == BreakerState::kHalfOpen && !p.half_open_busy) {
        jobs.push_back({i, true});
      } else if (p.state == BreakerState::kClosed) {
        jobs.push_back({i, false});
      }
    }
  }

  for (const Job& job : jobs) {
    std::string endpoint;
    {
      std::lock_guard<std::mutex> lk(mu_);
      endpoint = peers_[job.ix].endpoint;
      ++metrics_.health_probes;
    }
    auto cli = server::LeptonClient::connect(endpoint);
    server::RequestOptions opts;
    opts.transport_timeout = cfg_.health_timeout;
    server::RequestResult r;
    if (cli.ok()) {
      r = job.half_open ? cli.ping(opts) : cli.stats();
    }
    std::lock_guard<std::mutex> lk(mu_);
    Peer& p = peers_[job.ix];
    if (!cli.ok() || !r.transport_ok) {
      record_transport_failure_locked(job.ix);
      continue;
    }
    if (cfg_.op == FleetOp::kEncode && r.shutoff_engaged) {
      // Kill-switched: alive on the wire but refuses every encode. Keep it
      // out of the rotation without calling the transport dead.
      if (p.state != BreakerState::kOpen) {
        p.state = BreakerState::kOpen;
        p.half_open_busy = false;
        p.open_until =
            std::chrono::steady_clock::now() + cfg_.breaker_cooldown;
        ++metrics_.breaker_opens;
      }
      ++metrics_.unhealthy_endpoints;
      continue;
    }
    if (!job.half_open && r.code == ExitCode::kSuccess) {
      std::uint64_t depth = 0;
      if (parse_in_flight(r.data, &depth)) p.server_in_flight = depth;
    }
    record_success_locked(job.ix);
  }
  return static_cast<int>(jobs.size());
}

int FleetClient::pick_locked(std::chrono::steady_clock::time_point now,
                             int exclude) {
  // Cooldowns that have elapsed make their breakers probe-able.
  for (Peer& p : peers_) {
    if (p.state == BreakerState::kOpen && now >= p.open_until) {
      p.state = BreakerState::kHalfOpen;
      p.half_open_busy = false;
    }
  }
  std::vector<std::size_t> closed;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (peers_[i].state == BreakerState::kClosed &&
        static_cast<int>(i) != exclude) {
      closed.push_back(i);
    }
  }
  if (!closed.empty()) {
    if (!cfg_.least_in_flight) {
      return static_cast<int>(closed[static_cast<std::size_t>(
          rng_.below(static_cast<std::uint64_t>(closed.size())))]);
    }
    std::uint64_t best = ~0ull;
    std::vector<std::size_t> ties;
    for (std::size_t i : closed) {
      std::uint64_t depth =
          peers_[i].server_in_flight + peers_[i].local_outstanding;
      if (depth < best) {
        best = depth;
        ties.clear();
      }
      if (depth == best) ties.push_back(i);
    }
    return static_cast<int>(ties[static_cast<std::size_t>(
        rng_.below(static_cast<std::uint64_t>(ties.size())))]);
  }
  // No closed breaker: one half-open probe request may go through.
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& p = peers_[i];
    if (p.state == BreakerState::kHalfOpen && !p.half_open_busy &&
        static_cast<int>(i) != exclude) {
      p.half_open_busy = true;
      ++metrics_.half_open_probes;
      return static_cast<int>(i);
    }
  }
  // Nothing else is routable: retry in place (a one-endpoint fleet).
  return exclude >= 0 ? pick_locked(now, -1) : -1;
}

void FleetClient::record_success_locked(std::size_t ix) {
  Peer& p = peers_[ix];
  p.consecutive_failures = 0;
  ++p.successes;
  if (p.state != BreakerState::kClosed) {
    p.state = BreakerState::kClosed;
    p.half_open_busy = false;
    ++metrics_.breaker_closes;
  }
}

void FleetClient::record_transport_failure_locked(std::size_t ix) {
  Peer& p = peers_[ix];
  ++p.failures;
  ++p.consecutive_failures;
  const bool open_now =
      p.state == BreakerState::kHalfOpen ||
      (p.state == BreakerState::kClosed &&
       p.consecutive_failures >= cfg_.breaker_threshold);
  if (open_now) {
    if (p.state == BreakerState::kClosed) ++metrics_.unhealthy_endpoints;
    p.state = BreakerState::kOpen;
    p.half_open_busy = false;
    p.open_until = std::chrono::steady_clock::now() + cfg_.breaker_cooldown;
    ++metrics_.breaker_opens;
  }
}

RequestTrace FleetClient::convert(FleetOp op,
                                  std::span<const std::uint8_t> body) {
  RequestTrace tr;
  tr.bytes_in = body.size();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++metrics_.requests;
  }

  int failed = -1;  // the endpoint of the attempt that just failed
  for (int attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
    int ix;
    std::string endpoint;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ix = pick_locked(std::chrono::steady_clock::now(), failed);
      if (ix < 0) {
        // Breaker set exhausted: fail fast in the §6.6 server-local class
        // so callers degrade (put() goes pass-through) instead of waiting
        // out a fleet that already told us it is down.
        ++metrics_.breaker_fast_fails;
        if (attempt == 0) {
          tr.first_code = ExitCode::kServerShutdown;
          metrics_.first_attempt_codes.add(
              static_cast<unsigned>(ExitCode::kServerShutdown));
        }
        tr.final_code = ExitCode::kServerShutdown;
        break;
      }
      Peer& p = peers_[static_cast<std::size_t>(ix)];
      ++p.local_outstanding;
      endpoint = p.endpoint;
    }

    // Fresh connection per attempt: the server closes after every
    // non-success trailer, and a requeue must not depend on the state of
    // the connection the failed attempt died on.
    auto cli = server::LeptonClient::connect(endpoint);
    server::RequestOptions opts;
    opts.deadline = attempt == 0 ? cfg_.first_deadline : cfg_.retry_deadline;
    server::RequestResult res;
    if (!cli.ok()) {
      res.transport_ok = false;
      res.code = ExitCode::kShortRead;
      res.message = cli.message();
    } else {
      res = op == FleetOp::kEncode
                ? cli.encode({body.data(), body.size()}, opts)
                : cli.decode({body.data(), body.size()}, opts);
    }

    bool done;
    std::chrono::milliseconds backoff{0};
    {
      std::lock_guard<std::mutex> lk(mu_);
      Peer& p = peers_[static_cast<std::size_t>(ix)];
      --p.local_outstanding;
      ++tr.attempts;
      tr.total_s += res.total_s;
      tr.final_server = ix;
      tr.final_code = res.code;
      if (attempt == 0) {
        tr.first_server = ix;
        tr.first_code = res.code;
        metrics_.first_attempt_codes.add(static_cast<unsigned>(res.code));
      }
      if (!res.transport_ok) {
        ++metrics_.transport_failures;
        record_transport_failure_locked(static_cast<std::size_t>(ix));
      } else {
        record_success_locked(static_cast<std::size_t>(ix));
      }
      if (res.ok()) {
        tr.ttfb_s = res.ttfb_s;
        tr.bytes_out = res.data.size();
        tr.data = std::move(res.data);
        ++metrics_.succeeded;
        done = true;
      } else if (!requeue_worthy(res) || attempt + 1 >= cfg_.max_attempts) {
        done = true;
      } else {
        done = false;
        failed = ix;
        ++metrics_.requeues;
        // Exponential backoff with full jitter over the upper half:
        // retry k sleeps in [d/2, d], d = min(cap, base * 2^(k-1)).
        auto d = cfg_.backoff_base * (1 << attempt);
        if (d > cfg_.backoff_cap) d = cfg_.backoff_cap;
        if (d.count() > 0) {
          auto half = d.count() / 2;
          backoff = std::chrono::milliseconds(
              half + static_cast<std::int64_t>(rng_.below(
                         static_cast<std::uint64_t>(d.count() - half + 1))));
          ++metrics_.backoff_retries;
          metrics_.backoff_wait_s +=
              static_cast<double>(backoff.count()) / 1000.0;
        }
      }
    }
    if (done) break;
    if (backoff.count() > 0) {
      std::this_thread::sleep_for(backoff);
      tr.total_s += static_cast<double>(backoff.count()) / 1000.0;
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  metrics_.final_codes.add(static_cast<unsigned>(tr.final_code));
  metrics_.latency_s.add(tr.total_s);
  if (tr.final_code == ExitCode::kSuccess) metrics_.ttfb_s.add(tr.ttfb_s);
  metrics_.bytes_in += tr.bytes_in;
  metrics_.bytes_out += tr.bytes_out;
  return tr;
}

FleetClient::PutResult FleetClient::put(const TransparentStore& store,
                                        std::span<const std::uint8_t> jpeg) {
  PutResult pr;
  RequestTrace tr = convert(FleetOp::kEncode, jpeg);
  pr.attempts = tr.attempts;
  pr.fleet_code = tr.final_code;
  if (tr.final_code == ExitCode::kSuccess) {
    if (store.admit_converted(jpeg, std::move(tr.data), &pr.object)) {
      return pr;
    }
    // The fleet's container failed the §5.7 gate — treat exactly like a
    // failed conversion; the container is never stored.
    pr.fleet_code = ExitCode::kRoundtripFailed;
  }
  pr.passthrough = true;
  pr.object = store.put_passthrough(jpeg);
  std::lock_guard<std::mutex> lk(mu_);
  ++metrics_.passthrough_fallbacks;
  return pr;
}

RequeueMetrics FleetClient::metrics() const {
  std::lock_guard<std::mutex> lk(mu_);
  return metrics_;
}

std::vector<EndpointHealth> FleetClient::endpoints() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<EndpointHealth> out;
  out.reserve(peers_.size());
  for (const Peer& p : peers_) {
    EndpointHealth h;
    h.endpoint = p.endpoint;
    h.state = p.state;
    h.consecutive_failures = p.consecutive_failures;
    h.server_in_flight = p.server_in_flight;
    h.local_outstanding = p.local_outstanding;
    h.successes = p.successes;
    h.failures = p.failures;
    out.push_back(std::move(h));
  }
  return out;
}

void FleetClient::inject_reported_in_flight(std::size_t index,
                                            std::uint64_t depth) {
  std::lock_guard<std::mutex> lk(mu_);
  if (index < peers_.size()) peers_[index].server_in_flight = depth;
}

}  // namespace lepton::storage

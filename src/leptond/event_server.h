// Event-driven connection plane for the Lepton daemon (§6 deployment).
//
// The production fleet holds thousands of long-lived blockserver
// connections per daemon, almost all idle at any instant. A thread-per-
// connection server would price an idle connection at a parked thread;
// this plane prices it at a registered epoll fd:
//
//   * one event-loop thread owns every connection fd (nonblocking) plus
//     the listener; it buffers bytes toward each connection's next
//     request-open frame (8-byte header + <=64-byte control payload);
//   * when — and only when — a complete open frame is buffered, the
//     connection is removed from the loop and dispatched to one of a
//     fixed pool of worker threads, which runs the RequestService path
//     (blocking body reads under the wall budget, blocking response
//     writes under the send timeout), then hands the fd back to the loop
//     for the next request;
//   * the fixed pool is the concurrency bound: a request past it waits in
//     the job queue with its body unread, so backpressure reaches the
//     client through its own socket. Drain admission, deadlines,
//     slow-loris defense, kill-switch and stats are RequestService's
//     (server/service.h).
//
// So a slow-loris client dribbling a *header* holds a 72-byte buffer in
// the loop (reaped by the idle sweep), not a worker; a client dribbling a
// *body* holds a worker bounded by the wall budget; and a thousand idle
// keep-alive connections hold zero threads beyond the fixed pool — the
// connection-scaling property tests/leptond_test.cpp asserts.
//
// It is the only connection plane: leptond runs it, and embedders use it
// directly over either transport:
//
//   lepton::TransparentStore store;            // kill-switch authority
//   lepton::leptond::EventServerConfig cfg;
//   cfg.listen = "unix:/run/lepton.sock";      // or "tcp:127.0.0.1:2929"
//   cfg.service.store = &store;
//   lepton::leptond::EventServer srv(std::move(cfg));  // + optional ctx
//   srv.start();                               // loop + worker pool
//   ...
//   srv.stop();                                // drain in-flight, join
//
// docs/PROTOCOL.md is the wire contract; docs/OPERATIONS.md is the
// operator's guide.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/endpoint.h"
#include "server/service.h"

namespace lepton {
class CodecContext;
}

namespace lepton::leptond {

struct EventServerConfig {
  // Endpoint string: "tcp:host:port", "unix:/path", or a bare path
  // (server/endpoint.h). Port 0 binds an ephemeral port; read it back
  // from bound_address().
  std::string listen;

  // Fixed worker pool, 1 .. kMaxWorkers (leptond/config.h): the one bound
  // on requests served at once. A request whose open frame is buffered
  // while every worker is busy waits in the job queue with its body unread
  // — backpressure through the client's socket (docs/PROTOCOL.md).
  int workers = 4;

  server::ServiceConfig service;
};

class EventServer {
 public:
  explicit EventServer(EventServerConfig cfg, CodecContext* ctx = nullptr);
  ~EventServer();  // stop()s if still running

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  // Binds the listener, spawns the loop thread and the worker pool.
  // False (message in last_error()) when `workers` exceeds kMaxWorkers —
  // checked before any thread starts — or on bind/epoll failure.
  bool start();

  // Graceful drain: stop accepting, let dispatched requests run to their
  // trailer, close every connection, join everything. Idempotent.
  void stop();

  // Hard stop: trips every dispatched request's RunControl first;
  // cancelled requests trail as kServerShutdown.
  void shutdown_now();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& bound_address() const { return bound_; }
  const std::string& last_error() const { return error_; }

  server::ServerStats stats() const { return service_.stats(); }
  server::RequestService& service() { return service_; }

  // Connections currently owned by the plane (idle in the loop or
  // dispatched to a worker). The connection-scaling test reads this to
  // know its 1k idle connections are actually registered.
  std::size_t open_connections() const;

 private:
  struct EConn;

  void loop_main();
  void worker_main();
  bool accept_ready();
  void conn_readable(EConn* c);
  void dispatch(EConn* c);
  void rearm_or_close_ready();
  void sweep_idle();
  void close_conn(EConn* c);
  void wake_loop();

  EventServerConfig cfg_;
  server::Endpoint endpoint_;
  std::string bound_;
  std::string error_;
  server::RequestService service_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: workers -> loop (re-arm queue, stop)
  bool accept_paused_ = false;  // listener deregistered during fd backoff
  std::chrono::steady_clock::time_point accept_resume_at_;
  std::chrono::milliseconds accept_backoff_{10};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> workers_done_{false};  // stop(): pool joined, loop may exit
  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Connection registry. The loop inserts/erases; shutdown_now reads it
  // to trip in-flight controls, so mutations take the mutex.
  mutable std::mutex conns_mu_;
  std::unordered_map<int, std::unique_ptr<EConn>> conns_;

  // Loop -> workers: connections with a complete open frame.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<EConn*> jobs_;

  // Workers -> loop: served connections to re-arm (keep) or close.
  std::mutex done_mu_;
  std::vector<std::pair<EConn*, bool>> done_;  // (conn, keep)
};

}  // namespace lepton::leptond

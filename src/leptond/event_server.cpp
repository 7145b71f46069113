#include "leptond/event_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "leptond/config.h"
#include "server/sockio.h"

namespace lepton::leptond {

using server::FrameHeader;
using server::FrameType;
using server::kFrameHeaderSize;
using server::kMaxControlFrame;

// Per-connection loop state. The open buffer is bounded by the protocol
// itself: a request-open frame is an 8-byte header plus a <=64-byte
// control payload, so the loop never buffers request *bodies* — those are
// read by the worker under the wall budget, through kernel backpressure.
struct EventServer::EConn {
  server::ServiceConn svc;
  std::uint8_t open_buf[kFrameHeaderSize + kMaxControlFrame];
  std::size_t open_len = 0;
  std::size_t open_want = kFrameHeaderSize;
  bool header_done = false;
  bool dispatched = false;
  std::chrono::steady_clock::time_point idle_deadline;
};

EventServer::EventServer(EventServerConfig cfg, CodecContext* ctx)
    : cfg_(std::move(cfg)), service_(cfg_.service, ctx) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  service_.set_extra_stats([this] {
    std::string t = "plane event\n";
    t += "workers " + std::to_string(cfg_.workers) + "\n";
    t += "open_connections " + std::to_string(open_connections()) + "\n";
    t += "open_fds " + std::to_string(server::count_open_fds()) + "\n";
    return t;
  });
}

EventServer::~EventServer() { stop(); }

std::size_t EventServer::open_connections() const {
  std::lock_guard<std::mutex> lk(conns_mu_);
  return conns_.size();
}

bool EventServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  if (cfg_.workers > kMaxWorkers) {
    error_ = "workers " + std::to_string(cfg_.workers) + " exceeds the " +
             std::to_string(kMaxWorkers) + "-worker ceiling";
    return false;
  }
  if (!server::parse_endpoint(cfg_.listen, &endpoint_, &error_)) return false;
  listen_fd_ =
      server::listen_endpoint(endpoint_, &error_, &bound_, /*backlog=*/512);
  if (listen_fd_ < 0) return false;
  server::set_nonblocking(listen_fd_, true);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    error_ = std::string("epoll/eventfd: ") + std::strerror(errno);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    server::unlink_endpoint(endpoint_);
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.ptr = &wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  service_.reset();
  stopping_.store(false, std::memory_order_release);
  workers_done_.store(false, std::memory_order_release);
  accept_paused_ = false;
  accept_backoff_ = std::chrono::milliseconds(10);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread(&EventServer::loop_main, this);
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back(&EventServer::worker_main, this);
  }
  return true;
}

void EventServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    // Set under the mutex the workers' wait predicate runs under: a worker
    // between its predicate check and its sleep would otherwise miss the
    // notify below and never wake to be joined.
    std::lock_guard<std::mutex> lk(jobs_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  service_.begin_drain();
  jobs_cv_.notify_all();
  wake_loop();
  // Workers first: they drain the job queue (draining requests answer
  // kServerShutdown at admission) and finish in-flight conversions to
  // their trailer — the graceful part of the drain.
  for (auto& w : workers_) w.join();
  workers_.clear();
  workers_done_.store(true, std::memory_order_release);
  wake_loop();
  loop_thread_.join();
  ::close(epoll_fd_);
  ::close(wake_fd_);
  ::close(listen_fd_);
  epoll_fd_ = wake_fd_ = listen_fd_ = -1;
  server::unlink_endpoint(endpoint_);
  running_.store(false, std::memory_order_release);
}

void EventServer::shutdown_now() {
  if (!running_.load(std::memory_order_acquire)) return;
  service_.cancel_all();
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& [fd, c] : conns_) {
      c->svc.rc.request_cancel();
      // Unblock worker-side body reads and loop-side idle waits alike.
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  stop();
}

void EventServer::wake_loop() {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(wake_fd_, &one, sizeof one);
}

// ---- loop thread -----------------------------------------------------------

void EventServer::loop_main() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool accept_stopped = false;
  auto next_sweep = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(500);
  for (;;) {
    rearm_or_close_ready();
    if (stopping_.load(std::memory_order_acquire)) {
      if (!accept_stopped) {
        // Stop admitting new connections the moment the drain starts; the
        // listener fd itself is closed after the threads join.
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        accept_stopped = true;
      }
      if (workers_done_.load(std::memory_order_acquire)) break;
    }
    auto now = std::chrono::steady_clock::now();
    if (accept_paused_ && !accept_stopped && now >= accept_resume_at_) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = &listen_fd_;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
      accept_paused_ = false;
    }
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, /*timeout=*/100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      void* p = events[i].data.ptr;
      if (p == &listen_fd_) {
        accept_ready();
      } else if (p == &wake_fd_) {
        std::uint64_t junk;
        while (::read(wake_fd_, &junk, sizeof junk) > 0) {
        }
      } else {
        conn_readable(static_cast<EConn*>(p));
      }
    }
    now = std::chrono::steady_clock::now();
    if (now >= next_sweep) {
      sweep_idle();
      next_sweep = now + std::chrono::milliseconds(500);
    }
  }
  // Teardown: every connection still registered is idle (workers already
  // joined and their hand-backs were processed above); close them all.
  rearm_or_close_ready();
  std::vector<EConn*> rest;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    rest.reserve(conns_.size());
    for (auto& [fd, c] : conns_) rest.push_back(c.get());
  }
  for (EConn* c : rest) close_conn(c);
}

bool EventServer::accept_ready() {
  for (;;) {
    int fd = -1;
    bool injected = false;
    // Failpoint "accept": inject descriptor exhaustion so the deregister/
    // backoff/re-register dance below runs without a full fd table.
    if (util::failpoint::armed()) {
      util::failpoint::Outcome o = util::failpoint::hit("accept");
      if (o.fired() &&
          o.action != util::failpoint::Action::kDelay) {
        injected = true;
        errno = o.action == util::failpoint::Action::kErr ? o.err : EMFILE;
      }
    }
    if (!injected) {
      fd = ::accept4(listen_fd_, nullptr, nullptr,
                     SOCK_CLOEXEC | SOCK_NONBLOCK);
    }
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of descriptors. With a level-triggered listener and a
        // non-empty backlog, staying registered would spin the loop hot —
        // deregister, back off, re-register when the backoff elapses
        // (connections finish, fds free, the backlog keeps the peers).
        service_.record_accept_retry();
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        accept_paused_ = true;
        accept_resume_at_ =
            std::chrono::steady_clock::now() + accept_backoff_;
        accept_backoff_ =
            std::min(accept_backoff_ * 2, std::chrono::milliseconds(500));
        return true;
      }
      return false;
    }
    accept_backoff_ = std::chrono::milliseconds(10);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    server::tune_accepted_socket(fd);
    server::set_send_timeout(fd, cfg_.service.idle_read_timeout);
    auto c = std::make_unique<EConn>();
    c->svc.fd = fd;
    c->idle_deadline =
        std::chrono::steady_clock::now() + cfg_.service.idle_read_timeout;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c.get();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    service_.record_connection();
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.emplace(fd, std::move(c));
  }
}

void EventServer::conn_readable(EConn* c) {
  if (c->dispatched) return;  // stale event already handed to a worker
  const int fd = c->svc.fd;
  for (;;) {
    // Never read past the open frame: bytes after it belong to the request
    // body, which the worker reads under the wall budget.
    ssize_t r = ::recv(fd, c->open_buf + c->open_len,
                       c->open_want - c->open_len, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(c);
      return;
    }
    if (r == 0) {
      // Clean close between requests is just a goodbye; mid-header is the
      // wire-level short read.
      if (c->open_len > 0) service_.record_short_read();
      close_conn(c);
      return;
    }
    c->open_len += static_cast<std::size_t>(r);
    c->idle_deadline =
        std::chrono::steady_clock::now() + cfg_.service.idle_read_timeout;
    if (!c->header_done && c->open_len >= kFrameHeaderSize) {
      c->header_done = true;
      FrameHeader fh;
      if (parse_frame_header(c->open_buf, &fh) &&
          (fh.type == FrameType::kEncode || fh.type == FrameType::kDecode ||
           fh.type == FrameType::kShutoff)) {
        // Buffer the control payload too, so the worker starts with the
        // complete open frame in hand. Everything else — PING/STATS (no
        // payload expected), stray stream frames, unparseable headers —
        // dispatches on the header alone; the service answers and closes.
        c->open_want = kFrameHeaderSize + fh.length;
      }
    }
    if (c->header_done && c->open_len >= c->open_want) {
      dispatch(c);
      return;
    }
  }
}

void EventServer::dispatch(EConn* c) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->svc.fd, nullptr);
  c->dispatched = true;
  {
    std::lock_guard<std::mutex> lk(jobs_mu_);
    jobs_.push_back(c);
  }
  jobs_cv_.notify_one();
}

void EventServer::rearm_or_close_ready() {
  std::vector<std::pair<EConn*, bool>> batch;
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    batch.swap(done_);
  }
  const auto now = std::chrono::steady_clock::now();
  for (auto& [c, keep] : batch) {
    if (!keep || stopping_.load(std::memory_order_acquire)) {
      close_conn(c);
      continue;
    }
    server::set_nonblocking(c->svc.fd, true);
    c->open_len = 0;
    c->open_want = kFrameHeaderSize;
    c->header_done = false;
    c->dispatched = false;
    c->idle_deadline = now + cfg_.service.idle_read_timeout;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c;
    // Level-triggered: if the client already pipelined the next request,
    // the ADD fires immediately — keep-alive costs no extra round trip.
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c->svc.fd, &ev) != 0) {
      close_conn(c);
    }
  }
}

void EventServer::sweep_idle() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<EConn*> expired;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& [fd, c] : conns_) {
      if (!c->dispatched && now >= c->idle_deadline) {
        expired.push_back(c.get());
      }
    }
  }
  // An idle (or header-dribbling) timeout is a silent close, not a
  // recorded protocol error.
  for (EConn* c : expired) close_conn(c);
}

void EventServer::close_conn(EConn* c) {
  const int fd = c->svc.fd;
  if (!c->dispatched) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  std::lock_guard<std::mutex> lk(conns_mu_);
  // Close under the registry lock so shutdown_now never shutdown()s a
  // descriptor number the kernel has already reused.
  ::close(fd);
  conns_.erase(fd);
}

// ---- worker threads --------------------------------------------------------

void EventServer::worker_main() {
  for (;;) {
    EConn* c = nullptr;
    {
      std::unique_lock<std::mutex> lk(jobs_mu_);
      jobs_cv_.wait(lk, [&] {
        return stopping_.load(std::memory_order_acquire) || !jobs_.empty();
      });
      if (jobs_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      c = jobs_.front();
      jobs_.pop_front();
    }
    // The service's request path does blocking reads (body, wall-budgeted)
    // and blocking writes (send timeout armed at accept).
    server::set_nonblocking(c->svc.fd, false);
    bool keep = service_.serve_frame(c->svc, c->open_buf,
                                     c->open_buf + kFrameHeaderSize);
    {
      std::lock_guard<std::mutex> lk(done_mu_);
      done_.emplace_back(c, keep);
    }
    wake_loop();
  }
}

}  // namespace lepton::leptond

// leptond — the standalone Lepton compression daemon (§6 deployment).
//
//   leptond --listen tcp:0.0.0.0:2929 --workers 4 --shutoff-file /dev/shm/ls
//
// Serves the docs/PROTOCOL.md frame protocol over TCP or AF_UNIX with the
// event-driven connection plane (event_server.h). Supervision contract:
//   SIGTERM / SIGINT  graceful drain (in-flight requests run to their
//                     trailer), then exit 0
//   SIGHUP            re-stat the shutoff file now (bypasses the 250 ms
//                     TTL cache) and log the state
//   --pidfile PATH    pid written on start, removed on exit
// docs/OPERATIONS.md §"leptond" is the operator guide.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <sys/signalfd.h>
#include <unistd.h>

#include "lepton/context.h"
#include "lepton/store.h"
#include "leptond/config.h"
#include "leptond/event_server.h"
#include "util/failpoint.h"

namespace {

using lepton::leptond::DaemonConfig;

void log_line(const DaemonConfig& cfg, const std::string& s) {
  if (cfg.quiet) return;
  std::fprintf(stderr, "leptond: %s\n", s.c_str());
  std::fflush(stderr);
}

}  // namespace

int main(int argc, char** argv) {
  DaemonConfig cfg;
  std::string err;
  bool show_help = false;
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!lepton::leptond::parse_args(args, &cfg, &err, &show_help)) {
    std::fprintf(stderr, "leptond: %s\n%s", err.c_str(),
                 lepton::leptond::usage_text().c_str());
    return 2;
  }
  if (show_help) {
    std::fputs(lepton::leptond::usage_text().c_str(), stdout);
    return 0;
  }

  // Chaos harness hook: LEPTON_FAILPOINTS arms the fault-injection schedule
  // (util/failpoint.h grammar). A malformed spec is a hard error — a soak
  // that silently ran fault-free proves nothing.
  if (!lepton::util::failpoint::arm_from_env(&err)) {
    std::fprintf(stderr, "leptond: LEPTON_FAILPOINTS: %s\n", err.c_str());
    return 2;
  }
  if (lepton::util::failpoint::armed()) {
    log_line(cfg, "failpoints armed from LEPTON_FAILPOINTS");
  }

  // Take the pidfile before binding: a live owner means a daemon is already
  // serving this role — refuse. A dead owner's leftover file is replaced.
  if (!cfg.pidfile.empty() &&
      !lepton::leptond::acquire_pidfile(cfg.pidfile, &err)) {
    std::fprintf(stderr, "leptond: %s\n", err.c_str());
    return 1;
  }

  // Block the supervision signals before *any* thread exists — the codec
  // context and the connection plane both spawn pools, every thread
  // inherits this mask, and only the signalfd below ever sees a signal.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGHUP);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    std::fprintf(stderr, "leptond: sigmask: %s\n", std::strerror(errno));
    return 1;
  }
  int sfd = signalfd(-1, &mask, SFD_CLOEXEC);
  if (sfd < 0) {
    std::fprintf(stderr, "leptond: signalfd: %s\n", std::strerror(errno));
    return 1;
  }

  lepton::TransparentStore store;
  if (!cfg.shutoff_file.empty()) store.set_shutoff_file(cfg.shutoff_file);

  std::unique_ptr<lepton::CodecContext> ctx;
  if (cfg.codec_threads > 0) {
    ctx = std::make_unique<lepton::CodecContext>(cfg.codec_threads);
  }
  lepton::CodecContext* ctx_p =
      ctx ? ctx.get() : &lepton::default_context();

  lepton::leptond::EventServerConfig ec;
  ec.listen = cfg.listen;
  ec.workers = cfg.workers;
  ec.service.max_in_flight = cfg.max_in_flight;
  ec.service.max_body_bytes = cfg.max_body_bytes;
  ec.service.idle_read_timeout =
      std::chrono::milliseconds(cfg.idle_timeout_ms);
  ec.service.decode_cache_bytes =
      static_cast<std::size_t>(cfg.decode_cache_mb) << 20;
  ec.service.store = &store;
  lepton::leptond::EventServer plane(std::move(ec), ctx_p);

  if (!plane.start()) {
    std::fprintf(stderr, "leptond: cannot listen on %s: %s\n",
                 cfg.listen.c_str(), plane.last_error().c_str());
    if (!cfg.pidfile.empty()) ::unlink(cfg.pidfile.c_str());
    return 1;
  }

  log_line(cfg, "listening on " + plane.bound_address() +
                    " (workers=" + std::to_string(cfg.workers) +
                    " pid=" + std::to_string(::getpid()) + ")");

  // Supervised run loop: nothing to poll but the signalfd — all serving
  // happens on the plane's threads.
  int exit_code = 0;
  for (bool run = true; run;) {
    signalfd_siginfo si;
    ssize_t n = ::read(sfd, &si, sizeof si);
    if (n != static_cast<ssize_t>(sizeof si)) {
      if (n < 0 && errno == EINTR) continue;
      exit_code = 1;
      break;
    }
    switch (si.ssi_signo) {
      case SIGHUP: {
        // Reload of the shutoff state: re-stat the file now, TTL bypassed.
        bool engaged = store.recheck_shutoff();
        log_line(cfg, std::string("SIGHUP: shutoff ") +
                          (engaged ? "engaged" : "clear"));
        break;
      }
      case SIGTERM:
      case SIGINT: {
        log_line(cfg, "draining");
        run = false;
        break;
      }
      default:
        break;
    }
  }

  plane.stop();
  auto s = plane.stats();
  log_line(cfg, "drained: " + std::to_string(s.requests) + " requests, " +
                    std::to_string(s.connections) + " connections served");
  if (!cfg.pidfile.empty()) ::unlink(cfg.pidfile.c_str());
  ::close(sfd);
  return exit_code;
}

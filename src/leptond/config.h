// leptond's configuration layer: a key=value config file and command-line
// flags over it (flags win). The keys are the operator surface documented
// in docs/OPERATIONS.md §"leptond"; parsing lives apart from main() so
// tests can exercise it without forking a daemon.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lepton::leptond {

struct DaemonConfig {
  std::string config_file;           // --config (read before other flags)
  std::string listen = "tcp:127.0.0.1:2929";
  int workers = 4;                   // event plane's fixed worker pool
  int codec_threads = 0;             // CodecContext pool size; 0 = default
  int max_in_flight = 4;
  std::uint64_t max_body_bytes = 6u << 20;
  std::uint64_t idle_timeout_ms = 30000;
  // Decoded-output LRU budget for DECODE requests, in MiB; 0 disables.
  // Hits skip the decode; misses buffer the body and decode at END (the
  // TTFB trade is documented on ServiceConfig::decode_cache_bytes).
  std::uint64_t decode_cache_mb = 0;
  std::string shutoff_file;          // §5.7 kill-switch file (SIGHUP re-stats)
  std::string pidfile;
  bool quiet = false;
};

// Applies one key/value (config-file line or --flag). Unknown key or
// malformed value: false with *err set.
bool apply_option(DaemonConfig* cfg, const std::string& key,
                  const std::string& value, std::string* err);

// Parses config-file text: one "key value" or "key = value" per line,
// '#' comments, blank lines ignored.
bool parse_config_text(const std::string& text, DaemonConfig* cfg,
                       std::string* err);

// Full flag parsing: finds --config first, loads the file, then applies
// the remaining flags over it. argv-style input sans argv[0].
// *show_help is set when --help is present.
bool parse_args(const std::vector<std::string>& args, DaemonConfig* cfg,
                std::string* err, bool* show_help);

// The --help text (shared with error messages).
std::string usage_text();

// ---- pidfile liveness ------------------------------------------------------
//
// A daemon that died uncleanly (SIGKILL, OOM, power) leaves its pidfile
// behind; the replacement must not be locked out by a ghost. The rule:
// refuse only when the recorded owner is *alive* (kill(pid, 0) reaches a
// process — EPERM counts as alive), replace otherwise.

enum class PidfileState {
  kAbsent,       // no file — free to take
  kStale,        // unreadable/garbage pid, or the owner is gone (ESRCH)
  kOwnerAlive,   // a live process holds it — refuse to start
};

// Classifies `path` without modifying it. On kOwnerAlive, *owner_pid (when
// non-null) receives the recorded pid.
PidfileState inspect_pidfile(const std::string& path, long* owner_pid);

// Takes the pidfile for the calling process: absent or stale files are
// (re)written with getpid(); a live owner refuses with *err naming the pid.
// False is also returned when the file cannot be written.
bool acquire_pidfile(const std::string& path, std::string* err);

}  // namespace lepton::leptond

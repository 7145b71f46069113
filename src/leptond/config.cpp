#include "leptond/config.h"

#include <cerrno>
#include <csignal>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "util/fileio.h"

namespace lepton::leptond {
namespace {

bool parse_u64(const std::string& v, std::uint64_t* out) {
  if (v.empty()) return false;
  std::uint64_t n = 0;
  for (char ch : v) {
    if (ch < '0' || ch > '9') return false;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (n > (UINT64_MAX - digit) / 10) return false;  // would wrap
    n = n * 10 + digit;
  }
  *out = n;
  return true;
}

bool parse_bool(const std::string& v, bool* out) {
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    *out = true;
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") {
    *out = false;
    return true;
  }
  return false;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

bool apply_option(DaemonConfig* cfg, const std::string& key,
                  const std::string& value, std::string* err) {
  auto bad = [&](const char* what) {
    if (err != nullptr) {
      *err = std::string(what) + " for '" + key + "': '" + value + "'";
    }
    return false;
  };
  if (key == "listen") {
    if (value.empty()) return bad("empty value");
    cfg->listen = value;
    return true;
  }
  if (key == "workers") {
    std::uint64_t n;
    if (!parse_u64(value, &n) || n < 1 || n > kMaxWorkers) {
      return bad("bad value");
    }
    cfg->workers = static_cast<int>(n);
    return true;
  }
  if (key == "max-body-bytes") {
    return parse_u64(value, &cfg->max_body_bytes) ? true : bad("bad value");
  }
  if (key == "idle-timeout-ms") {
    std::uint64_t ms;
    if (!parse_u64(value, &ms) || ms == 0 || ms > kMaxIdleTimeoutMs) {
      return bad("bad value");
    }
    cfg->idle_timeout_ms = ms;
    return true;
  }
  if (key == "shutoff-file") {
    cfg->shutoff_file = value;
    return true;
  }
  if (key == "pidfile") {
    cfg->pidfile = value;
    return true;
  }
  if (key == "quiet") {
    bool b;
    if (!parse_bool(value, &b)) return bad("bad value");
    cfg->quiet = b;
    return true;
  }
  if (err != nullptr) *err = "unknown option '" + key + "'";
  return false;
}

bool parse_config_text(const std::string& text, DaemonConfig* cfg,
                       std::string* err) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    // "key = value" or "key value".
    std::size_t sep = line.find_first_of("= \t");
    if (sep == std::string::npos) {
      if (err != nullptr) {
        *err = "line " + std::to_string(lineno) + ": expected 'key value'";
      }
      return false;
    }
    std::string key = trim(line.substr(0, sep));
    std::string value = trim(line.substr(sep + 1));
    if (!value.empty() && value.front() == '=') value = trim(value.substr(1));
    std::string inner;
    if (!apply_option(cfg, key, value, &inner)) {
      if (err != nullptr) {
        *err = "line " + std::to_string(lineno) + ": " + inner;
      }
      return false;
    }
  }
  return true;
}

bool parse_args(const std::vector<std::string>& args, DaemonConfig* cfg,
                std::string* err, bool* show_help) {
  if (show_help != nullptr) *show_help = false;

  // Split "--key=value" / "--key value" pairs; booleans may omit the value.
  struct Opt {
    std::string key, value;
  };
  std::vector<Opt> opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      if (show_help != nullptr) *show_help = true;
      return true;
    }
    if (a.rfind("--", 0) != 0) {
      if (err != nullptr) *err = "unexpected argument '" + a + "'";
      return false;
    }
    std::string key = a.substr(2);
    std::string value;
    auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (key != "quiet" && i + 1 < args.size()) {
      value = args[++i];
    }
    opts.push_back({std::move(key), std::move(value)});
  }

  // The config file (if any) first, then flags override it.
  for (const Opt& o : opts) {
    if (o.key == "config") cfg->config_file = o.value;
  }
  if (!cfg->config_file.empty()) {
    std::ifstream f(cfg->config_file);
    if (!f) {
      if (err != nullptr) {
        *err = "cannot read config file '" + cfg->config_file + "'";
      }
      return false;
    }
    std::ostringstream body;
    body << f.rdbuf();
    std::string inner;
    if (!parse_config_text(body.str(), cfg, &inner)) {
      if (err != nullptr) *err = cfg->config_file + ": " + inner;
      return false;
    }
  }
  for (const Opt& o : opts) {
    if (o.key == "config") continue;
    if (!apply_option(cfg, o.key, o.value, err)) return false;
  }
  return true;
}

PidfileState inspect_pidfile(const std::string& path, long* owner_pid) {
  std::ifstream f(path);
  if (!f) return PidfileState::kAbsent;
  long pid = 0;
  if (!(f >> pid) || pid <= 0) return PidfileState::kStale;
  if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM) {
    // Signal 0 probes existence without delivering anything; EPERM means
    // the pid exists but belongs to someone else — still alive.
    if (owner_pid != nullptr) *owner_pid = pid;
    return PidfileState::kOwnerAlive;
  }
  return PidfileState::kStale;  // ESRCH: the owner died without cleanup
}

bool acquire_pidfile(const std::string& path, std::string* err) {
  long owner = 0;
  if (inspect_pidfile(path, &owner) == PidfileState::kOwnerAlive) {
    if (err != nullptr) {
      *err = "pidfile '" + path + "' is held by live pid " +
             std::to_string(owner);
    }
    return false;
  }
  // Crash-atomic: temp + rename, so a daemon killed mid-write can never
  // leave a truncated pidfile that a later inspect_pidfile() would read as
  // a garbage pid (or, worse, somebody else's).
  std::string body = std::to_string(::getpid()) + "\n";
  util::fileio::IoStatus st = util::fileio::write_file_atomic(
      path, {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()},
      /*do_fsync=*/false);
  if (!st.ok()) {
    if (err != nullptr) {
      *err = "cannot write pidfile '" + path + "': " + std::string(st.op) +
             " failed";
    }
    return false;
  }
  return true;
}

std::string usage_text() {
  return
      "usage: leptond [flags]\n"
      "  --config FILE          key=value config file (flags override it)\n"
      "  --listen ENDPOINT      tcp:host:port | unix:/path (default "
      "tcp:127.0.0.1:2929)\n"
      "  --workers N            requests served at once (default 4, max "
      "256)\n"
      "  --max-body-bytes N     per-request body cap (default 6 MiB)\n"
      "  --idle-timeout-ms N    idle window / body wall budget (default "
      "30000, max 86400000)\n"
      "  --shutoff-file PATH    kill-switch file (SIGHUP re-stats it)\n"
      "  --pidfile PATH         write the daemon pid here\n"
      "  --quiet                no startup/shutdown chatter\n"
      "signals: SIGTERM/SIGINT graceful drain, SIGHUP shutoff-state "
      "reload\n";
}

}  // namespace lepton::leptond

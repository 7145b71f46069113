#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>
#include <zlib.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "server/client.h"

namespace perfbench {
namespace {

using Ms = std::chrono::milliseconds;

// Reads the child's stderr until the "listening on <endpoint> (" line.
bool read_endpoint(int fd, std::string* endpoint, std::string* log) {
  const auto deadline = std::chrono::steady_clock::now() + Ms(10000);
  const std::string marker = "listening on ";
  while (std::chrono::steady_clock::now() < deadline) {
    std::size_t at = log->find(marker);
    if (at != std::string::npos) {
      std::size_t end = log->find(' ', at + marker.size());
      if (end != std::string::npos) {
        *endpoint = log->substr(at + marker.size(), end - at - marker.size());
        return true;
      }
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[512];
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return false;  // exited before listening
    log->append(buf, static_cast<std::size_t>(n));
  }
  return false;
}

}  // namespace

std::unique_ptr<Daemon> Daemon::spawn(const std::string& exe,
                                      std::string* err) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *err = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  // vfork: the child borrows the parent's memory until exec, so spawning
  // does not copy page tables and costs the same whatever the benchmark
  // process holds. Until exec the child makes only raw system calls.
  const char* path = exe.c_str();
  const int err_w = fds[1];
  pid_t pid = ::vfork();
  if (pid == 0) {
    // The daemon dies with the benchmark even if the benchmark is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(err_w, 2);
    int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, 1);
    ::execl(path, path, "--listen", "tcp:127.0.0.1:0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  if (pid < 0) {
    *err = std::string("vfork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return nullptr;
  }
  ::close(fds[1]);
  std::unique_ptr<Daemon> d(new Daemon());
  d->pid_ = pid;
  d->err_fd_ = fds[0];
  std::string log;
  if (!read_endpoint(d->err_fd_, &d->endpoint_, &log)) {
    *err = "leptond did not report a listening address: " + log;
    return nullptr;
  }
  const auto deadline = std::chrono::steady_clock::now() + Ms(10000);
  while (std::chrono::steady_clock::now() < deadline) {
    auto cli = lepton::server::LeptonClient::connect(d->endpoint_);
    if (cli.ok() && cli.ping().ok()) return d;
    std::this_thread::sleep_for(Ms(1));
  }
  *err = "leptond did not answer PING on " + d->endpoint_;
  return nullptr;
}

Daemon::~Daemon() { stop(); }

bool Daemon::stop() {
  if (pid_ < 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const auto deadline = std::chrono::steady_clock::now() + Ms(15000);
  while (std::chrono::steady_clock::now() < deadline) {
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(Ms(2));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (err_fd_ >= 0) ::close(err_fd_);
  err_fd_ = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::map<std::string, std::string> Daemon::stats() const {
  std::map<std::string, std::string> out;
  auto cli = lepton::server::LeptonClient::connect(endpoint_);
  if (!cli.ok()) return out;
  auto r = cli.stats();
  if (!r.ok()) return out;
  std::istringstream in(std::string(r.data.begin(), r.data.end()));
  std::string line;
  while (std::getline(in, line)) {
    std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

double Daemon::cpu_seconds() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/stat");
  std::string s((std::istreambuf_iterator<char>(f)),
                std::istreambuf_iterator<char>());
  std::size_t close = s.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(s.substr(close + 2));
  std::vector<std::string> fields;
  for (std::string t; in >> t;) fields.push_back(t);
  // Fields 14 and 15 of proc(5) (utime, stime); field 3 is fields[0].
  if (fields.size() < 13) return 0;
  double ticks = std::stod(fields[11]) + std::stod(fields[12]);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mib() const {
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double self_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

CpuTicks read_cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    f >> v;
    t.total += v;
    if (i == 7) {
      t.steal = v;
    } else if (i != 3 && i != 4) {
      t.busy += v;
    }
  }
  return t;
}

double reference_cpu_seconds() {
  static const std::vector<unsigned char> input = [] {
    // A bounded random walk: compressible like image bytes, never trivially.
    std::vector<unsigned char> buf(1 << 20);
    std::uint64_t x = 88172645463325252ull;
    int v = 128;
    for (unsigned char& b : buf) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = std::min(255, std::max(0, v + static_cast<int>(x % 7) - 3));
      b = static_cast<unsigned char>(v + static_cast<int>(x >> 61));
    }
    return buf;
  }();
  const double c0 = self_cpu_seconds();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      std::vector<unsigned char> packed(compressBound(input.size()));
      std::vector<unsigned char> back(input.size());
      for (int k = 0; k < 4; ++k) {
        uLongf n = packed.size();
        uLongf m = back.size();
        if (compress2(packed.data(), &n, input.data(), input.size(), 6) != Z_OK ||
            uncompress(back.data(), &m, packed.data(), n) != Z_OK) {
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return self_cpu_seconds() - c0;
}

std::string filesystem_of(const std::string& path) {
  struct statfs sf {};
  if (::statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

}  // namespace perfbench

// The leptond child process and the host facts read from /proc.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

// A `leptond` child on loopback TCP with its shipped defaults (4 event
// workers, max-in-flight 4, 8 codec threads); only the port is chosen by
// the kernel. The destructor stops it: SIGTERM, a graceful drain, then
// SIGKILL if the drain does not finish.
class Daemon {
 public:
  // Spawns the binary and returns once it answered a PING. nullptr with
  // *err set when it did not start or did not answer in time.
  static std::unique_ptr<Daemon> spawn(const std::string& exe,
                                       std::string* err);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& endpoint() const { return endpoint_; }
  pid_t pid() const { return pid_; }

  // STATS rows ("key value"); empty on failure.
  std::map<std::string, std::string> stats() const;
  // User+system CPU seconds of the whole process so far.
  double cpu_seconds() const;
  // Peak resident set (VmHWM), MiB.
  double peak_rss_mib() const;

  // SIGTERM and wait; true when it exited 0 after draining.
  bool stop();

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  int err_fd_ = -1;  // the child's stderr
  std::string endpoint_;
};

// User+system CPU seconds of this process (all threads).
double self_cpu_seconds();

// Aggregate CPU tick counters from /proc/stat.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t busy = 0;   // user, nice, system, irq, softirq
  std::uint64_t steal = 0;  // runnable, but the hypervisor ran someone else

  // The share of the CPU time the VM wanted that the hypervisor withheld.
  double stolen_share() const {
    return steal + busy > 0 ? static_cast<double>(steal) /
                                  static_cast<double>(steal + busy)
                            : 0.0;
  }
};
CpuTicks read_cpu_ticks();

// CPU seconds this process spends on a fixed reference computation that
// shares no code with the system under test: zlib deflate and inflate of a
// fixed 1 MiB buffer, 4 rounds on each of 4 threads. Used to express time
// metrics at a nominal CPU speed (see README.md, "Host-available time").
double reference_cpu_seconds();
// reference_cpu_seconds() on the 4-vCPU VM this benchmark was tuned on, when
// its host was quiet; only the ratio to it matters.
inline constexpr double kReferenceNominalCpuS = 1.0;

// Filesystem type of the directory holding `path` (ext4, xfs, tmpfs, ...).
std::string filesystem_of(const std::string& path);

}  // namespace perfbench

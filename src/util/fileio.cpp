#include "util/fileio.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "util/failpoint.h"

namespace lepton::util::fileio {
namespace {

// Evaluates `site` when a schedule is armed. Returns true when the caller
// should proceed normally; false = fail now with *err_out set. `short` is
// only meaningful for fs.write (which handles it inline in write_all);
// on any other site it degrades to a plain error.
bool fp_gate(const char* site, int* err_out) {
  if (!failpoint::armed()) return true;
  failpoint::Outcome o = failpoint::hit(site);
  switch (o.action) {
    case failpoint::Action::kNone:
      return true;
    case failpoint::Action::kDelay:
      std::this_thread::sleep_for(o.delay);
      return true;
    case failpoint::Action::kShort:
    case failpoint::Action::kErr:
    case failpoint::Action::kFail:
      *err_out = o.err;
      return false;
  }
  return true;
}

IoStatus raw_write_all(int fd, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return {errno, "write"};
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return {0, "write"};
}

}  // namespace

IoStatus create_excl(const std::string& path, int* fd_out) {
  int inj = 0;
  if (!fp_gate("fs.open", &inj)) return {inj, "open"};
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return {errno, "open"};
  *fd_out = fd;
  return {0, "open"};
}

IoStatus write_all(int fd, std::span<const std::uint8_t> data) {
  int inj = 0;
  std::uint64_t draw = 0;
  bool torn = false;
  if (failpoint::armed()) {
    failpoint::Outcome o = failpoint::hit("fs.write");
    switch (o.action) {
      case failpoint::Action::kNone:
        break;
      case failpoint::Action::kDelay:
        std::this_thread::sleep_for(o.delay);
        break;
      case failpoint::Action::kErr:
      case failpoint::Action::kFail:
        return {o.err, "write"};
      case failpoint::Action::kShort:
        // The injected torn write: a true prefix really lands on disk, then
        // the call fails — the file is left exactly as a crash mid-write
        // (or a dying disk) would leave it.
        torn = true;
        inj = o.err;
        draw = o.draw;
        break;
    }
  }
  if (torn) {
    std::size_t prefix = data.empty() ? 0 : draw % data.size();
    IoStatus w = raw_write_all(fd, data.subspan(0, prefix));
    return {w.ok() ? inj : w.err, "write"};
  }
  return raw_write_all(fd, data);
}

IoStatus sync_fd(int fd) {
  int inj = 0;
  if (!fp_gate("fs.fsync", &inj)) return {inj, "fsync"};
  if (::fsync(fd) != 0) return {errno, "fsync"};
  return {0, "fsync"};
}

IoStatus sync_dir(const std::string& dir) {
  int inj = 0;
  if (!fp_gate("fs.fsync", &inj)) return {inj, "fsync"};
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return {errno, "fsync"};
  int rc = ::fsync(fd);
  int err = rc != 0 ? errno : 0;
  ::close(fd);
  return {err, "fsync"};
}

IoStatus rename_path(const std::string& from, const std::string& to) {
  int inj = 0;
  if (!fp_gate("fs.rename", &inj)) return {inj, "rename"};
  if (::rename(from.c_str(), to.c_str()) != 0) return {errno, "rename"};
  return {0, "rename"};
}

IoStatus unlink_path(const std::string& path) {
  int inj = 0;
  if (!fp_gate("fs.unlink", &inj)) return {inj, "unlink"};
  if (::unlink(path.c_str()) != 0) return {errno, "unlink"};
  return {0, "unlink"};
}

IoStatus write_file_atomic(const std::string& path,
                           std::span<const std::uint8_t> data, bool do_fsync) {
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  ::unlink(tmp.c_str());  // a stale temp from a crashed predecessor
  int fd = -1;
  IoStatus st = create_excl(tmp, &fd);
  if (!st.ok()) return st;
  st = write_all(fd, data);
  if (st.ok() && do_fsync) st = sync_fd(fd);
  ::close(fd);
  if (st.ok()) st = rename_path(tmp, path);
  if (!st.ok()) {
    ::unlink(tmp.c_str());  // best effort; never clobber `path`
    return st;
  }
  if (do_fsync) {
    std::size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    IoStatus ds = sync_dir(dir);
    if (!ds.ok()) return ds;
  }
  return {0, st.op};
}

bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  // Sized once from fstat and read straight into place. The file may still
  // change size under the read: a short file ends at EOF, and the bytes of
  // one that grew arrive through `more`; either way *out holds exactly the
  // bytes read.
  struct stat st{};
  out->resize(::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)
                  ? static_cast<std::size_t>(st.st_size)
                  : 0);
  std::size_t len = 0;
  std::uint8_t more[1 << 16];
  for (;;) {
    bool full = len == out->size();
    ssize_t r = full ? ::read(fd, more, sizeof more)
                     : ::read(fd, out->data() + len, out->size() - len);
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (r == 0) break;
    if (full) out->insert(out->end(), more, more + r);
    len += static_cast<std::size_t>(r);
  }
  ::close(fd);
  out->resize(len);
  return true;
}

bool make_dirs(const std::string& path) {
  std::string cur;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    std::size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    cur = path.substr(0, slash);
    pos = slash + 1;
    if (cur.empty()) continue;
    if (::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) return false;
    struct stat st{};
    if (::stat(cur.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) return false;
  }
  return true;
}

namespace {

std::vector<std::string> list_entries(const std::string& dir, bool dirs) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    struct stat st{};
    if (::stat((dir + "/" + name).c_str(), &st) != 0) continue;
    if (dirs ? S_ISDIR(st.st_mode) : S_ISREG(st.st_mode)) {
      out.push_back(std::move(name));
    }
  }
  ::closedir(d);
  return out;
}

}  // namespace

std::vector<std::string> list_files(const std::string& dir) {
  return list_entries(dir, false);
}

std::vector<std::string> list_dirs(const std::string& dir) {
  return list_entries(dir, true);
}

}  // namespace lepton::util::fileio

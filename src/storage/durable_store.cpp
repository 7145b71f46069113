#include "storage/durable_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "lepton/context.h"
#include "storage/scrubber.h"
#include "util/fileio.h"
#include "util/fnv1a.h"
#include "util/md5.h"
#include "util/thread_pool.h"

namespace lepton::storage {
namespace fio = util::fileio;

namespace {

constexpr char kJournalName[] = "journal";
constexpr char kObjectsDir[] = "objects";
constexpr char kQuarantineDir[] = "quarantine";
constexpr char kReasonsLog[] = "quarantine/reasons.log";
constexpr char kTempPrefix[] = ".tmp.";

std::string to_hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Keys are operator-visible strings; the journal is line/space delimited,
// so space, '%', and control bytes are %XX-escaped.
std::string escape_key(std::string_view key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    auto u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u == 0x7f || c == '%') {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool unescape_key(std::string_view in, std::string* out) {
  out->clear();
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '%') {
      out->push_back(in[i]);
      continue;
    }
    if (i + 2 >= in.size() || !std::isxdigit(static_cast<unsigned char>(in[i + 1])) ||
        !std::isxdigit(static_cast<unsigned char>(in[i + 2]))) {
      return false;
    }
    out->push_back(static_cast<char>(
        std::stoi(std::string(in.substr(i + 1, 2)), nullptr, 16)));
    i += 2;
  }
  return true;
}

bool is_md5_hex(std::string_view s) {
  if (s.size() != 32) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isxdigit(static_cast<unsigned char>(c)) &&
           !std::isupper(static_cast<unsigned char>(c));
  });
}

struct JournalRecord {
  std::string key;
  StorageKind kind;
  std::string md5_hex;
  std::uint64_t size;
};

// The record's last field is FNV-1a over everything before it: any bit flip
// anywhere in a journal line — key, kind, md5, size or the checksum itself
// — fails validation, so a corrupted record is rejected (and its object
// quarantined as an orphan) instead of trusted.
std::string format_record(const JournalRecord& r) {
  std::string body = "put " + escape_key(r.key) + ' ' +
                     std::string(storage_kind_name(r.kind)) + ' ' + r.md5_hex +
                     ' ' + std::to_string(r.size);
  return body + ' ' + to_hex64(util::fnv1a(body)) + '\n';
}

// Strict parse + checksum validation of one complete line (no newline).
bool parse_record(std::string_view line, JournalRecord* out) {
  std::size_t chk_at = line.find_last_of(' ');
  if (chk_at == std::string::npos) return false;
  std::string_view chk = line.substr(chk_at + 1);
  if (chk.size() != 16 ||
      to_hex64(util::fnv1a(line.substr(0, chk_at))) != chk) {
    return false;
  }
  std::vector<std::string_view> f;
  std::size_t pos = 0;
  while (pos <= chk_at) {
    std::size_t sp = line.find(' ', pos);
    if (sp == std::string::npos || sp > chk_at) sp = chk_at;
    f.push_back(line.substr(pos, sp - pos));
    pos = sp + 1;
  }
  if (f.size() != 5 || f[0] != "put") return false;
  if (!unescape_key(f[1], &out->key)) return false;
  if (!parse_storage_kind(f[2], &out->kind)) return false;
  if (!is_md5_hex(f[3])) return false;
  out->md5_hex = f[3];
  char* end = nullptr;
  std::string size_s(f[4]);
  unsigned long long sz = std::strtoull(size_s.c_str(), &end, 10);
  if (end == size_s.c_str() || *end != '\0') return false;
  out->size = sz;
  return true;
}

bool file_size(const std::string& path, std::uint64_t* out) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return false;
  *out = static_cast<std::uint64_t>(st.st_size);
  return true;
}

// What one read of an object file proved about it.
enum class ObjectCheck { kGood, kMismatch, kReadError };

// The per-object verify routine of recovery and the scrubber: streams
// `path` through a fixed buffer into the md5, then compares the byte count
// and digest with the journal's. Memory stays one buffer per caller however
// large the object. A failed open or read is kReadError, never kMismatch.
// `keep`, when set, also receives the bytes (the scrubber's decode
// spot-check). Raw I/O: repair-side, not injectable.
ObjectCheck check_object(const std::string& path, std::uint64_t size,
                         const std::string& md5_hex, std::uint64_t* bytes_read,
                         std::vector<std::uint8_t>* keep) {
  *bytes_read = 0;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ObjectCheck::kReadError;
  if (keep != nullptr) {
    keep->clear();
    struct stat st{};
    if (::fstat(fd, &st) == 0) {
      keep->reserve(static_cast<std::size_t>(st.st_size));
    }
  }
  util::Md5 md5;
  std::uint8_t buf[1 << 16];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ObjectCheck::kReadError;
    }
    if (r == 0) break;
    md5.update({buf, static_cast<std::size_t>(r)});
    if (keep != nullptr) keep->insert(keep->end(), buf, buf + r);
    *bytes_read += static_cast<std::uint64_t>(r);
  }
  ::close(fd);
  return *bytes_read == size && util::Md5::hex(md5.final()) == md5_hex
             ? ObjectCheck::kGood
             : ObjectCheck::kMismatch;
}

// Raw (unrouted) append for the quarantine reason log — repair-side I/O
// must keep working while a chaos schedule is armed against the commit
// path.
void append_reason(const std::string& root, const std::string& line) {
  int fd = ::open((root + "/" + kReasonsLog).c_str(),
                  O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return;
  ssize_t ignored = ::write(fd, line.data(), line.size());
  (void)ignored;
  ::close(fd);
}

}  // namespace

DurableStore::DurableStore(DurableStoreConfig cfg)
    : cfg_(std::move(cfg)), codec_store_(cfg_.encode) {}

DurableStore::~DurableStore() {
  stop_scrubber();
  std::lock_guard<std::mutex> lk(mu_);
  if (journal_fd_ >= 0) {
    if (cfg_.fsync != FsyncMode::kNone && journal_unsynced_ > 0) {
      ::fsync(journal_fd_);
    }
    ::close(journal_fd_);
  }
}

std::unique_ptr<DurableStore> DurableStore::open(DurableStoreConfig cfg,
                                                 std::string* err) {
  if (cfg.root.empty()) {
    if (err != nullptr) *err = "durable store root is empty";
    return nullptr;
  }
  std::unique_ptr<DurableStore> s(new DurableStore(std::move(cfg)));
  if (!s->recover(err)) return nullptr;
  return s;
}

std::string DurableStore::object_dir(const std::string& md5_hex) const {
  return cfg_.root + "/" + kObjectsDir + "/" + md5_hex.substr(0, 2);
}

std::string DurableStore::object_path(const std::string& md5_hex) const {
  return object_dir(md5_hex) + "/" + md5_hex;
}

bool DurableStore::quarantine_file(const std::string& rel_dir,
                                   const std::string& name,
                                   const std::string& reason) {
  std::string from = cfg_.root + "/" + rel_dir + "/" + name;
  // The sequence restarts at 0 on every open and rename() overwrites an
  // existing destination, so probe until a name no other run has used —
  // "bytes are NEVER deleted" includes bytes a previous run preserved.
  std::string to;
  do {
    to = cfg_.root + "/" + kQuarantineDir + "/" + name + "." +
         std::to_string(quarantine_seq_++);
  } while (::access(to.c_str(), F_OK) == 0);
  // Raw rename: quarantine is repair-side and must not be injectable.
  if (::rename(from.c_str(), to.c_str()) != 0) return false;
  append_reason(cfg_.root, name + " <- " + rel_dir + ": " + reason + "\n");
  return true;
}

bool DurableStore::recover(std::string* err) {
  auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what;
    return false;
  };
  for (const char* sub : {"", kObjectsDir, kQuarantineDir}) {
    std::string d = cfg_.root + (sub[0] != '\0' ? std::string("/") + sub : "");
    if (!fio::make_dirs(d)) return fail("cannot create " + d);
  }

  RecoveryReport rep;

  // 1. Journal → candidate records. Complete, checksum-valid lines only: a
  //    torn tail (crash mid-append) is dropped silently — that commit was
  //    never acknowledged; a bad line mid-file is counted as corruption.
  std::string jpath = cfg_.root + "/" + kJournalName;
  std::vector<JournalRecord> records;
  {
    std::vector<std::uint8_t> raw;
    if (fio::read_file(jpath, &raw)) {
      std::string_view text(reinterpret_cast<const char*>(raw.data()),
                            raw.size());
      std::size_t pos = 0;
      while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) {
          ++rep.journal_torn_tail;
          break;
        }
        JournalRecord r;
        if (parse_record(text.substr(pos, nl - pos), &r)) {
          records.push_back(std::move(r));
        } else {
          ++rep.journal_bad_records;
        }
        pos = nl + 1;
      }
    }
  }

  // Last record per key wins; track which md5s are referenced.
  std::map<std::string, Entry, std::less<>> index;
  for (const JournalRecord& r : records) {
    index[r.key] = Entry{r.kind, r.md5_hex, r.size};
  }
  std::map<std::string, std::vector<std::string>> md5_keys;
  for (const auto& [key, e] : index) md5_keys[e.md5_hex].push_back(key);

  // 2. Sweep the fanout in three passes. Classify, serially and without
  //    reading object contents: temps, unreferenced files, size mismatches.
  //    Verify, in parallel: md5 every referenced object whose size matched
  //    (when configured), largest first. Apply, serially in sweep order:
  //    quarantine and drop keys. Verdicts never depend on one another, and
  //    every action happens in the order one thread sweeping alone would
  //    take it, so quarantine names, reasons.log and the report are the
  //    same whatever the thread count.
  struct SweepItem {
    std::string rel;  // objects/<aa>
    std::string name;
    std::uint64_t size = 0;  // on disk
    bool good = false;       // size, then md5 when verified, match the journal
  };
  std::vector<SweepItem> sweep;
  std::vector<std::size_t> to_verify;
  std::string objects_root = cfg_.root + "/" + kObjectsDir;
  for (const std::string& fan : fio::list_dirs(objects_root)) {
    std::string rel = std::string(kObjectsDir) + "/" + fan;
    for (std::string& name : fio::list_files(objects_root + "/" + fan)) {
      SweepItem item{rel, std::move(name)};
      auto it = md5_keys.find(item.name);
      if (it != md5_keys.end()) {
        item.good = file_size(cfg_.root + "/" + rel + "/" + item.name,
                              &item.size) &&
                    item.size == index.at(it->second.front()).size;
        if (item.good && cfg_.verify_md5_on_open) {
          to_verify.push_back(sweep.size());
        }
      }
      sweep.push_back(std::move(item));
    }
  }
  std::stable_sort(to_verify.begin(), to_verify.end(),
                   [&sweep](std::size_t a, std::size_t b) {
                     return sweep[a].size > sweep[b].size;
                   });
  util::parallel_for_segments(
      static_cast<int>(to_verify.size()),
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())),
      [&](int k) {
        SweepItem& item = sweep[to_verify[static_cast<std::size_t>(k)]];
        std::uint64_t read = 0;
        item.good = check_object(cfg_.root + "/" + item.rel + "/" + item.name,
                                 item.size, item.name, &read,
                                 nullptr) == ObjectCheck::kGood;
      });
  for (const SweepItem& item : sweep) {
    if (item.name.rfind(kTempPrefix, 0) == 0) {
      if (quarantine_file(item.rel, item.name,
                          "torn/partial commit (temp file)")) {
        ++rep.temps_quarantined;
      }
      continue;
    }
    auto it = md5_keys.find(item.name);
    if (it == md5_keys.end()) {
      // Present on disk, never acknowledged (the crash landed between
      // rename and journal append) — or its journal record was corrupted.
      // Also a second copy of a content address whose first copy just
      // failed its check.
      if (quarantine_file(item.rel, item.name,
                          "orphaned (no valid journal record)")) {
        ++rep.orphans_quarantined;
      }
      continue;
    }
    if (!item.good) {
      if (quarantine_file(item.rel, item.name,
                          "payload mismatch at recovery "
                          "(size or md5 vs journal)")) {
        ++rep.corrupt_quarantined;
      }
      rep.keys_lost += it->second.size();
      for (const std::string& k : it->second) index.erase(k);
      md5_keys.erase(it);
    }
  }
  // Journal entries whose object file is missing entirely: acknowledged
  // data that is simply gone — loss.
  for (auto it = index.begin(); it != index.end();) {
    std::uint64_t sz = 0;
    if (!file_size(object_path(it->second.md5_hex), &sz)) {
      ++rep.keys_lost;
      it = index.erase(it);
    } else {
      ++it;
    }
  }
  {
    std::map<std::string, bool> live_md5;
    for (const auto& [key, e] : index) live_md5[e.md5_hex] = true;
    rep.objects_live = live_md5.size();
  }
  rep.keys_live = index.size();

  // 3. Rewrite the journal compacted (atomic, raw-side barriers): drops
  //    torn tails, bad records, and superseded entries in one pass.
  {
    std::string body;
    for (const auto& [key, e] : index) {
      body += format_record({key, e.kind, e.md5_hex, e.size});
    }
    // Unrouted atomic write: recovery must succeed under an armed schedule.
    std::string tmp = jpath + ".compact";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) return fail("cannot write journal at " + jpath);
    const char* p = body.data();
    std::size_t n = body.size();
    while (n > 0) {
      ssize_t w = ::write(fd, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return fail("journal rewrite failed at " + jpath);
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    if (cfg_.fsync != FsyncMode::kNone) ::fsync(fd);
    ::close(fd);
    if (::rename(tmp.c_str(), jpath.c_str()) != 0) {
      return fail("journal rewrite rename failed at " + jpath);
    }
  }

  int jfd = ::open(jpath.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (jfd < 0) return fail("cannot reopen journal at " + jpath);

  std::lock_guard<std::mutex> lk(mu_);
  index_ = std::move(index);
  journal_fd_ = jfd;
  journal_len_ = 0;
  {
    off_t end = ::lseek(jfd, 0, SEEK_END);
    if (end > 0) journal_len_ = static_cast<std::uint64_t>(end);
  }
  journal_poisoned_ = false;
  journal_unsynced_ = 0;
  stats_.recovery = rep;
  return true;
}

bool DurableStore::append_journal_locked(const std::string& record,
                                         int* io_err) {
  fio::IoStatus st = fio::write_all(
      journal_fd_,
      {reinterpret_cast<const std::uint8_t*>(record.data()), record.size()});
  if (!st.ok()) {
    // A failed append may have landed a partial record. Mid-file (unlike a
    // crash, where the torn bytes are the tail and recovery drops them) the
    // partial would glue onto the NEXT append and corrupt that record's
    // line — losing a later acknowledged key. Restore the record boundary.
    // Raw ftruncate: repair-side, not injectable.
    if (::ftruncate(journal_fd_, static_cast<off_t>(journal_len_)) != 0) {
      // Cannot restore the boundary: the journal may corrupt the next
      // append, so stop accepting puts on this handle.
      journal_poisoned_ = true;
    }
    *io_err = st.err;
    return false;
  }
  journal_len_ += record.size();
  switch (cfg_.fsync) {
    case FsyncMode::kAlways:
      break;  // fsync below
    case FsyncMode::kBatch:
      if (++journal_unsynced_ < cfg_.batch_puts) return true;
      break;
    case FsyncMode::kNone:
      return true;
  }
  st = fio::sync_fd(journal_fd_);
  if (!st.ok()) {
    *io_err = st.err;
    return false;
  }
  journal_unsynced_ = 0;
  return true;
}

DurablePutStats DurableStore::commit(std::string_view key, StorageKind kind,
                                     std::span<const std::uint8_t> payload,
                                     const std::string& md5_hex,
                                     const PutStats& codec) {
  DurablePutStats out;
  out.kind = kind;
  out.md5_hex = md5_hex;
  out.bytes_stored = payload.size();
  out.codec = codec;

  auto fail = [&](int err) -> DurablePutStats& {
    out.code = fio::classify_io_errno(err);
    std::lock_guard<std::mutex> lk(mu_);
    if (out.code == util::ExitCode::kDiskFull) {
      ++stats_.puts_failed_disk_full;
    } else {
      ++stats_.puts_failed_io_error;
    }
    return out;
  };

  std::string dir = object_dir(md5_hex);
  std::string final_path = object_path(md5_hex);

  // Content-address dedup: the payload may already be committed (possibly
  // under another key); only the journal record is new then. Probe via an
  // opened fd + fstat, not stat-by-path, so the hit is pinned to a real
  // inode rather than a name a concurrent rename could retarget.
  bool have_object = false;
  {
    int rfd = ::open(final_path.c_str(), O_RDONLY | O_CLOEXEC);
    if (rfd >= 0) {
      struct stat st{};
      have_object = ::fstat(rfd, &st) == 0 && S_ISREG(st.st_mode) &&
                    static_cast<std::uint64_t>(st.st_size) == payload.size();
      ::close(rfd);
    }
  }
  if (have_object) {
    // The existing publish may not be durable yet: a prior put can have
    // renamed the object and then failed (or not yet reached) the
    // directory barrier. Acknowledging against it without re-issuing the
    // barrier would journal a key whose rename can vanish on power loss.
    if (cfg_.fsync != FsyncMode::kNone) {
      fio::IoStatus st = fio::sync_dir(dir);
      if (!st.ok()) return fail(st.err);
    }
  } else {
    if (!fio::make_dirs(dir)) return fail(EIO);
    std::uint64_t seq;
    {
      std::lock_guard<std::mutex> lk(mu_);
      seq = temp_seq_++;
    }
    // Temp name carries pid+seq: concurrent puts of the same content and
    // temps from a crashed predecessor can never collide.
    std::string tmp = dir + "/" + kTempPrefix + md5_hex + "." +
                      std::to_string(::getpid()) + "." + std::to_string(seq);
    int fd = -1;
    fio::IoStatus st = fio::create_excl(tmp, &fd);
    if (!st.ok()) return fail(st.err);
    st = fio::write_all(fd, payload);
    if (st.ok() && cfg_.fsync != FsyncMode::kNone) st = fio::sync_fd(fd);
    ::close(fd);
    if (st.ok()) st = fio::rename_path(tmp, final_path);
    if (!st.ok()) {
      // No temp-file litter behind a failed put. The unlink itself is a
      // failpoint site — when it too fails (or we crashed before reaching
      // it), the startup sweep quarantines the leftover.
      fio::unlink_path(tmp);
      return fail(st.err);
    }
    if (cfg_.fsync != FsyncMode::kNone) {
      st = fio::sync_dir(dir);
      if (!st.ok()) return fail(st.err);
    }
  }

  std::string record = format_record(
      {std::string(key), kind, md5_hex, payload.size()});
  {
    std::lock_guard<std::mutex> lk(mu_);
    int io_err = 0;
    if (journal_poisoned_) {
      ++stats_.puts_failed_io_error;
      out.code = util::ExitCode::kIoError;
      return out;
    }
    if (!append_journal_locked(record, &io_err)) {
      // The object file exists but the key was never acknowledged; the
      // orphan sweep reclaims it on the next open unless another key
      // shares the content.
      out.code = fio::classify_io_errno(io_err);
      if (out.code == util::ExitCode::kDiskFull) {
        ++stats_.puts_failed_disk_full;
      } else {
        ++stats_.puts_failed_io_error;
      }
      return out;
    }
    index_[std::string(key)] = Entry{kind, md5_hex, payload.size()};
    ++stats_.puts_acknowledged;
    if (have_object) {
      out.deduplicated = true;
      ++stats_.puts_deduplicated;
    }
  }
  out.acknowledged = true;
  out.code = util::ExitCode::kSuccess;
  return out;
}

DurablePutStats DurableStore::put(std::string_view key,
                                  std::span<const std::uint8_t> file) {
  PutStats ps;
  StoredObject obj = codec_store_.put(file, &ps);
  return commit(key, obj.kind, {obj.payload.data(), obj.payload.size()},
                obj.md5_hex, ps);
}

DurablePutStats DurableStore::put_object(std::string_view key,
                                         const StoredObject& obj) {
  PutStats ps;
  ps.bytes_in = obj.payload.size();
  ps.bytes_out = obj.payload.size();
  return commit(key, obj.kind, {obj.payload.data(), obj.payload.size()},
                obj.md5_hex, ps);
}

bool DurableStore::load_object(std::string_view key, StoredObject* obj,
                               util::ExitCode* code, std::string* message) {
  Entry e;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    e = it->second;
    ++stats_.gets;
  }
  obj->kind = e.kind;
  obj->md5_hex = e.md5_hex;
  if (!fio::read_file(object_path(e.md5_hex), &obj->payload)) {
    // A failed open/read is not evidence of corruption — fd exhaustion or
    // a transient EIO can fail the read while the bytes on disk are
    // perfectly healthy. Leave the object and the index alone so the key
    // stays retryable; only a verified md5 mismatch may quarantine.
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.get_read_errors;
    *code = util::ExitCode::kIoError;
    *message = "stored object could not be read; retryable";
    return true;
  }
  if (util::Md5::hex_digest({obj->payload.data(), obj->payload.size()}) !=
      e.md5_hex) {
    // Never serve corrupt bytes: quarantine now, report the loss.
    std::lock_guard<std::mutex> lk(mu_);
    if (quarantine_file(std::string(kObjectsDir) + "/" + e.md5_hex.substr(0, 2),
                        e.md5_hex, "md5 mismatch on get()")) {
    }
    drop_keys_with_md5_locked(e.md5_hex);
    ++stats_.get_corrupt_quarantined;
    *code = util::ExitCode::kIoError;
    *message = "stored object failed integrity check; quarantined";
    return true;
  }
  *code = util::ExitCode::kSuccess;
  return true;
}

bool DurableStore::get(std::string_view key, Result* out) {
  StoredObject obj;
  util::ExitCode code = util::ExitCode::kSuccess;
  std::string message;
  if (!load_object(key, &obj, &code, &message)) return false;
  if (code != util::ExitCode::kSuccess) {
    out->code = code;
    out->data.clear();
    out->message = std::move(message);
    return true;
  }
  // The codec-layer get re-checks md5 (cheap, and preserves the §5.7
  // posture that consumption facts are part of correctness for kLepton).
  *out = codec_store_.get(obj);
  return true;
}

bool DurableStore::get_object(std::string_view key, StoredObject* out,
                              util::ExitCode* code) {
  util::ExitCode c = util::ExitCode::kSuccess;
  std::string message;
  if (!load_object(key, out, &c, &message)) return false;
  if (code != nullptr) *code = c;
  return true;
}

bool DurableStore::lookup(std::string_view key, StorageKind* kind,
                          std::string* md5_hex, std::uint64_t* size) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  if (kind != nullptr) *kind = it->second.kind;
  if (md5_hex != nullptr) *md5_hex = it->second.md5_hex;
  if (size != nullptr) *size = it->second.size;
  return true;
}

void DurableStore::drop_keys_with_md5_locked(const std::string& md5_hex) {
  for (auto it = index_.begin(); it != index_.end();) {
    if (it->second.md5_hex == md5_hex) {
      it = index_.erase(it);
    } else {
      ++it;
    }
  }
}

bool DurableStore::contains(std::string_view key) const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.find(key) != index_.end();
}

std::vector<std::string> DurableStore::keys() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& [k, e] : index_) out.push_back(k);
  return out;
}

std::size_t DurableStore::key_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.size();
}

bool DurableStore::sync() {
  std::lock_guard<std::mutex> lk(mu_);
  if (journal_fd_ < 0 || journal_unsynced_ == 0) return true;
  // Group commit is part of the commit path, so the barrier is routed
  // (injectable). On failure the records stay pending — the next batch,
  // an explicit retry, or close retries them — and the caller hears about
  // it instead of trusting a sync that never happened.
  if (!fio::sync_fd(journal_fd_).ok()) return false;
  journal_unsynced_ = 0;
  return true;
}

DurableStoreStats DurableStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::vector<DurableStore::ScrubItem> DurableStore::scrub_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, ScrubItem> by_md5;
  for (const auto& [key, e] : index_) {
    by_md5[e.md5_hex] = ScrubItem{e.md5_hex, e.kind, e.size};
  }
  std::vector<ScrubItem> out;
  out.reserve(by_md5.size());
  for (auto& [md5, item] : by_md5) out.push_back(std::move(item));
  return out;
}

std::uint64_t DurableStore::scrub_verify_object(const ScrubItem& item,
                                                bool decode_check) {
  decode_check = decode_check && item.kind == StorageKind::kLepton;
  std::vector<std::uint8_t> bytes;
  std::uint64_t read = 0;
  ObjectCheck check = check_object(object_path(item.md5_hex), item.size,
                                   item.md5_hex, &read,
                                   decode_check ? &bytes : nullptr);
  if (check == ObjectCheck::kReadError) {
    // Same rule as get(): a failed read proves nothing about the bytes on
    // disk. Count it and move on — the next pass (or a get) retries; only
    // a verified mismatch of successfully-read bytes may quarantine.
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.scrub_objects_checked;
    ++stats_.scrub_read_errors;
    return 0;
  }
  bool good = check == ObjectCheck::kGood;
  bool decode_ok = true;
  if (good && decode_check) {
    // Decode spot-check: the container must still decode cleanly with its
    // payload exactly consumed — the §5.7 facts get() would require.
    VectorSink sink;
    DecodeStats ds;
    util::ExitCode code = decode_lepton({bytes.data(), bytes.size()}, sink, {},
                                        default_context(), &ds);
    decode_ok = code == util::ExitCode::kSuccess && ds.payload_exhausted;
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.scrub_objects_checked;
  stats_.scrub_bytes_read += read;
  if (decode_check) ++stats_.scrub_decode_checks;
  if (good && decode_ok) return read;
  ++stats_.scrub_corrupt_found;
  if (quarantine_file(
          std::string(kObjectsDir) + "/" + item.md5_hex.substr(0, 2),
          item.md5_hex,
          good ? "decode spot-check failed (scrub)" : "md5 mismatch (scrub)")) {
  }
  drop_keys_with_md5_locked(item.md5_hex);
  return read;
}

void DurableStore::scrub_verify_journal() {
  // Re-read the on-disk journal and checksum-validate every complete
  // record: bit rot in the journal itself must be detected, not trusted.
  std::vector<std::uint8_t> raw;
  if (!fio::read_file(cfg_.root + "/" + kJournalName, &raw)) return;
  std::string_view text(reinterpret_cast<const char*>(raw.data()), raw.size());
  std::uint64_t bad = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // in-flight append, not corruption
    JournalRecord r;
    if (!parse_record(text.substr(pos, nl - pos), &r)) ++bad;
    pos = nl + 1;
  }
  std::lock_guard<std::mutex> lk(mu_);
  stats_.scrub_journal_bad_records += bad;
}

void DurableStore::start_scrubber(ScrubberConfig cfg) {
  if (scrubber_ != nullptr) return;
  scrubber_ = std::make_unique<Scrubber>(this, cfg);
  scrubber_->start();
}

void DurableStore::stop_scrubber() {
  if (scrubber_ == nullptr) return;
  scrubber_->stop();
  scrubber_.reset();
}

void DurableStore::scrub_pass_now() {
  Scrubber s(this, ScrubberConfig{});
  s.run_pass();
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.scrub_passes;
}

FsckReport DurableStore::fsck(const std::string& root, std::string* err) {
  FsckReport rep;
  DurableStoreConfig cfg;
  cfg.root = root;
  cfg.verify_md5_on_open = true;
  std::unique_ptr<DurableStore> s = open(std::move(cfg), err);
  if (s == nullptr) {
    rep.lost = ~0ull;  // unusable store: report as loss-grade
    return rep;
  }
  DurableStoreStats st = s->stats();
  rep.healthy = st.recovery.objects_live;
  rep.keys = st.recovery.keys_live;
  rep.orphaned = st.recovery.orphans_quarantined;
  rep.quarantined = st.recovery.temps_quarantined +
                    st.recovery.orphans_quarantined +
                    st.recovery.corrupt_quarantined;
  rep.lost = st.recovery.keys_lost;
  return rep;
}

}  // namespace lepton::storage

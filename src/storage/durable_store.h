// DurableStore — the crash-safe on-disk persistence layer under
// TransparentStore's codec policy (ISSUE 9; the durability substrate the
// sharded fleet store shards over).
//
// The paper's deployment keeps hundreds of PB behind blockservers and
// leans on layered verification (§5.7 round-trip admission, §6.2 error
// accounting) so "no user data is ever lost" survives crashes and bad
// disks. This layer supplies the disk half of that posture:
//
// Commit protocol (per put, in order):
//   1. temp file `objects/<aa>/.tmp.<md5>.<pid>.<seq>` written via the
//      failpoint-routed util/fileio shim (fs.open / fs.write / fs.fsync /
//      fs.rename / fs.unlink are all injectable, including `short` torn
//      writes and err:ENOSPC / err:EIO)
//   2. fsync(temp)                      — bytes durable before visible
//   3. rename(temp → objects/<aa>/<md5>) — atomic publish, content-addressed
//      by the payload md5 (identical payloads dedup to one file)
//   4. fsync(objects/<aa>/)             — the rename itself durable
//   5. append one journal record {key, kind, md5, size, fnv64} + fsync
//   6. acknowledge
// A crash between any two steps leaves either nothing, a temp file the
// startup sweep quarantines, or an unreferenced object the recovery pass
// quarantines as an orphan — never a torn object behind an acknowledged
// key. The journal record's own checksum (fnv-1a over the record fields)
// makes a torn or bit-flipped journal line detectable, not trusted.
//
// Invariant (proven by examples/crash_store.cpp under kill-9 and by the
// recovery-matrix tests): acknowledged ⇒ readable byte-identical;
// unacknowledged ⇒ absent, quarantined, or — when the crash landed after
// the journal record became durable but before the ack was delivered —
// fully intact; never half-served, never served corrupt.
//
// Recovery (open()): parse the journal (checksum-validated, torn tail
// dropped), sweep temp files and unreferenced objects into `quarantine/`
// with a reason line (bytes are NEVER deleted — quarantine is a move), and
// verify size+md5 of every referenced object; a mismatch quarantines the
// file and reports the keys as lost (fsck exits nonzero on loss). The md5
// verdicts are computed on every core, largest object first; the moves and
// key drops then happen on one thread in sweep order, so quarantine names,
// reasons.log and the RecoveryReport do not depend on the thread count.
// The journal is then rewritten compacted, atomically.
//
// Failed commits are first-class outcomes: ENOSPC/EDQUOT classify as
// kDiskFull, other I/O errors as kIoError (never kImpossible), the temp
// file is unlinked (and the startup sweep catches what an injected
// fs.unlink failure leaves behind), and the failure is tallied in stats.
//
// Recovery, quarantine and scrub I/O deliberately bypass the failpoint
// shim: a chaos schedule aimed at the commit path must not be able to
// corrupt the repair machinery.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "lepton/store.h"

namespace lepton::storage {

class Scrubber;

enum class FsyncMode : std::uint8_t {
  kAlways,  // steps 2/4/5 all barriered — crash-safe vs power loss
  kBatch,   // object files barriered; the journal fsyncs every
            // `batch_puts` records (group commit) and on sync()/close
  kNone,    // no barriers — crash-safe vs process death only (bench floor)
};

struct DurableStoreConfig {
  std::string root;
  FsyncMode fsync = FsyncMode::kAlways;
  std::size_t batch_puts = 16;
  // Recovery verifies size of every referenced object always; full md5
  // re-verification can be skipped for large stores (the scrubber then
  // covers it incrementally). It costs about the referenced bytes ÷
  // (cores × one core's md5 rate), and at least the largest object's md5.
  bool verify_md5_on_open = true;
  EncodeOptions encode;  // TransparentStore codec policy
};

struct DurablePutStats {
  util::ExitCode code = util::ExitCode::kSuccess;  // kDiskFull/kIoError on
                                                   // a failed commit
  bool acknowledged = false;
  StorageKind kind = StorageKind::kDeflate;
  std::string md5_hex;
  std::size_t bytes_stored = 0;
  bool deduplicated = false;  // payload already on disk (content address hit)
  PutStats codec;             // the TransparentStore §6.2 facts
};

struct RecoveryReport {
  std::uint64_t objects_live = 0;        // journal entries with healthy files
  std::uint64_t keys_live = 0;
  std::uint64_t temps_quarantined = 0;   // torn/partial commits swept
  std::uint64_t orphans_quarantined = 0; // files with no journal record
  std::uint64_t corrupt_quarantined = 0; // size/md5 mismatch vs journal
  std::uint64_t keys_lost = 0;           // acknowledged keys now unreadable
  std::uint64_t journal_torn_tail = 0;   // trailing partial record dropped
  std::uint64_t journal_bad_records = 0; // checksum/parse failures mid-file
};

struct DurableStoreStats {
  std::uint64_t puts_acknowledged = 0;
  std::uint64_t puts_deduplicated = 0;
  std::uint64_t puts_failed_disk_full = 0;
  std::uint64_t puts_failed_io_error = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_corrupt_quarantined = 0;
  // Reads that failed outright (open/read error). NOT corruption: the key
  // stays in the index and the object is untouched — retryable.
  std::uint64_t get_read_errors = 0;
  // Scrubber counters (zero until start_scrubber; see scrubber.h for the
  // glossary — also docs/OPERATIONS.md §"Durability & recovery").
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_objects_checked = 0;
  std::uint64_t scrub_bytes_read = 0;
  std::uint64_t scrub_decode_checks = 0;
  std::uint64_t scrub_corrupt_found = 0;
  std::uint64_t scrub_read_errors = 0;  // unreadable this pass; not quarantined
  std::uint64_t scrub_journal_bad_records = 0;
  RecoveryReport recovery;  // from this open()
};

struct FsckReport {
  std::uint64_t healthy = 0;
  std::uint64_t quarantined = 0;  // this pass: temps + orphans + corrupt
  std::uint64_t orphaned = 0;     // subset of quarantined
  std::uint64_t lost = 0;         // acknowledged keys unreadable — data loss
  std::uint64_t keys = 0;
  bool ok() const { return lost == 0; }
};

struct ScrubberConfig {
  // Token-bucket read budget; 0 = unlimited. The scrubber must never
  // compete with serving traffic for disk bandwidth.
  std::size_t rate_limit_bytes_per_s = 8 << 20;
  std::chrono::milliseconds pass_interval{2000};  // idle between full passes
  // Every Nth kLepton object additionally gets a decode spot-check (full
  // container decode, §5.7 consumption facts required). 0 disables.
  unsigned decode_check_every = 8;
};

class DurableStore {
 public:
  ~DurableStore();
  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  // Opens (creating the layout if absent) and runs recovery. nullptr with
  // *err set when the root is unusable; recovery findings land in
  // stats().recovery.
  static std::unique_ptr<DurableStore> open(DurableStoreConfig cfg,
                                            std::string* err);

  // Compress-and-commit: TransparentStore::put picks the storage kind
  // (Lepton behind the §5.7 round-trip gate, Deflate fallback, shutoff
  // honored), then the payload is committed via the protocol above.
  // Returns stats.acknowledged == true only once the commit is durable per
  // the configured FsyncMode.
  DurablePutStats put(std::string_view key, std::span<const std::uint8_t> file);

  // Commits a pre-admitted object (e.g. a fleet conversion that already
  // passed TransparentStore::admit_converted, or a put_passthrough object).
  DurablePutStats put_object(std::string_view key, const StoredObject& obj);

  // Reads the original bytes back. False = key unknown (not an error).
  // True with out->code != kSuccess = the key exists but cannot be served:
  // an on-disk md5 mismatch quarantines the object immediately (kIoError;
  // corrupt bytes are never returned); a failed open/read (fd exhaustion,
  // transient EIO) is kIoError WITHOUT quarantine — the key stays
  // retryable, since unread bytes are not evidence of corruption; and
  // decode-layer failures classify as TransparentStore::get does.
  bool get(std::string_view key, Result* out);

  // Reads the stored container behind a key — payload + kind + md5, no
  // decode. The shard-migration path (storage/sharded_store.h) moves
  // objects between shards at rest with this. Same contract as get():
  // false = key unknown; true with *code != kSuccess = the key exists but
  // the object is unreadable (retryable) or failed its md5 (quarantined).
  bool get_object(std::string_view key, StoredObject* out,
                  util::ExitCode* code = nullptr);

  // Index peek: the content address (and kind/size) behind a key, without
  // touching disk. The sharded store keys its decode cache off this md5.
  // False = key unknown. Out-params may be null.
  bool lookup(std::string_view key, StorageKind* kind, std::string* md5_hex,
              std::uint64_t* size) const;

  bool contains(std::string_view key) const;
  std::vector<std::string> keys() const;
  std::size_t key_count() const;

  // Flushes a batched journal (kBatch) to disk now; no-op (true) otherwise.
  // False = the fsync failed: the unsynced records stay pending and the
  // next batch boundary, sync() call, or close retries the barrier.
  bool sync();

  // Background integrity scrubber (scrubber.h): rate-limited md5 re-verify
  // of every object plus decode spot-checks for kLepton objects; corrupt
  // objects are quarantined and counted. Idempotent.
  void start_scrubber(ScrubberConfig cfg = {});
  void stop_scrubber();
  // One synchronous full pass (tests, fsck drills, the crash harness).
  void scrub_pass_now();

  DurableStoreStats stats() const;
  const std::string& root() const { return cfg_.root; }

  // The codec-policy layer under this store — exposed so a fleet-fronting
  // caller can convert remotely against the same admission gate
  // (FleetClient::put takes the TransparentStore) and so SHUTOFF drills
  // reach every shard's switch.
  TransparentStore& codec() { return codec_store_; }
  const TransparentStore& codec() const { return codec_store_; }

  // Offline check of an existing store directory: runs the same recovery
  // pass (sweeping temps, quarantining orphans/corruption) plus a full
  // md5 verify, and reports. `lost > 0` means acknowledged data is gone —
  // leptonctl fsck exits nonzero on it.
  static FsckReport fsck(const std::string& root, std::string* err);

 private:
  friend class Scrubber;
  struct Entry {
    StorageKind kind;
    std::string md5_hex;
    std::uint64_t size;
  };

  DurableStore(DurableStoreConfig cfg);

  bool recover(std::string* err);
  // Shared read path under get()/get_object(): index lookup, payload read,
  // md5 verify (mismatch quarantines). False = key unknown.
  bool load_object(std::string_view key, StoredObject* obj,
                   util::ExitCode* code, std::string* message);
  DurablePutStats commit(std::string_view key, StorageKind kind,
                         std::span<const std::uint8_t> payload,
                         const std::string& md5_hex, const PutStats& codec);
  bool append_journal_locked(const std::string& record, int* io_err);
  // Moves objects/<aa>/<name> into quarantine/<name>.<seq> with a reason
  // line, probing <seq> past any name an earlier run already used. Never
  // deletes or overwrites bytes. Returns false if the move itself failed
  // (file stays).
  bool quarantine_file(const std::string& rel_dir, const std::string& name,
                       const std::string& reason);
  void drop_keys_with_md5_locked(const std::string& md5_hex);
  std::string object_dir(const std::string& md5_hex) const;
  std::string object_path(const std::string& md5_hex) const;

  // Scrubber interface (scrubber.h drives these).
  struct ScrubItem {
    std::string md5_hex;
    StorageKind kind;
    std::uint64_t size;
  };
  std::vector<ScrubItem> scrub_snapshot() const;
  // Re-reads + md5-verifies one object (decode spot-check optional).
  // Returns bytes read; corrupt objects are quarantined and tallied.
  std::uint64_t scrub_verify_object(const ScrubItem& item, bool decode_check);
  void scrub_verify_journal();

  DurableStoreConfig cfg_;
  TransparentStore codec_store_;
  mutable std::mutex mu_;  // index + journal fd + counters
  std::map<std::string, Entry, std::less<>> index_;
  int journal_fd_ = -1;
  std::uint64_t journal_len_ = 0;  // last known record boundary
  // Set when a failed append could not be truncated back to a record
  // boundary: further appends would corrupt the next record, so puts on
  // this handle fail (kIoError) until the store is reopened.
  bool journal_poisoned_ = false;
  std::size_t journal_unsynced_ = 0;
  std::uint64_t temp_seq_ = 0;
  std::uint64_t quarantine_seq_ = 0;
  DurableStoreStats stats_;
  std::unique_ptr<Scrubber> scrubber_;
};

}  // namespace lepton::storage

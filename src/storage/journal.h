// A durable journal of TQL statements. Every successfully executed
// journaled statement (TraitsOf in query/ast.h) is appended, in its
// canonical one-line text, and synced before the caller is acknowledged;
// recovery is deterministic replay through an ActiveDatabase — oids are
// assigned sequentially and triggers fire as they did live, so a
// replayed journal reproduces the exact database state.
//
// On-disk format (v2, the only one read or written): a header line
// followed by framed, checksummed records —
//
//   TCHIMERA-JOURNAL 2 <epoch>
//   R <seq> <len> <crc32> <statement>
//
// <seq> is 1-based and contiguous, <len> the statement's byte length,
// <crc32> eight hex digits over "<seq> <statement>". Any torn or
// bit-flipped record invalidates exactly the tail from that record on;
// ScanJournal finds the longest valid prefix and SalvageJournal
// quarantines the rest to `<journal>.corrupt`. A non-empty file that does
// not start with the header's magic (and is not a header torn at
// creation), or names another version, is Corruption: it is never
// replayed, salvaged or appended to.
//
// <epoch> orders a journal against snapshots: a snapshot written with
// epoch E contains the effects of every journal with epoch < E, so
// recovery replays only journals with epoch >= E (see recovery.h for the
// full checkpoint protocol).
//
// The journal's owner syncs: Append only writes, and a record survives a
// crash once the owner's next Sync() returns. GroupCommitJournal syncs
// once per batch of statements from many sessions; a Replica syncs once
// per applied batch. The header is synced when a journal is created, and
// Rotate and Close sync everything appended.
#ifndef TCHIMERA_STORAGE_JOURNAL_H_
#define TCHIMERA_STORAGE_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_fs.h"
#include "common/result.h"
#include "triggers/trigger.h"

namespace tchimera {

struct JournalOptions {
  uint64_t epoch = 0;         // epoch stamped on a newly created journal
  FileSystem* fs = nullptr;   // nullptr = FileSystem::Default()
};

// The parse of one journal file: everything up to (not including) the
// first invalid byte.
struct JournalScan {
  int format = 0;  // the header's version (2); 0 = empty file or no header
  uint64_t epoch = 0;
  uint64_t last_seq = 0;
  std::vector<std::string> statements;
  uint64_t valid_bytes = 0;    // byte length of the valid prefix
  uint64_t dropped_bytes = 0;  // byte length of the corrupt tail
  Status tail_error;  // OK when the whole file parsed; else why it stopped
};

// Parses a journal file without executing anything. IoError if the file
// cannot be read, Corruption if it is not a v2 journal; a torn or corrupt
// tail (a torn or malformed header included) is reported via
// `tail_error` / `dropped_bytes`, not as a failure.
Result<JournalScan> ScanJournal(const std::string& path,
                                FileSystem* fs = nullptr);

// Moves the corrupt tail of a journal (if any) to `<path>.corrupt`
// (appending, so repeated salvages accumulate evidence) and truncates the
// journal to its longest valid prefix. Returns the scan describing what
// was kept. No-op beyond the scan for clean files; fails like ScanJournal,
// touching nothing, for a file that is not a v2 journal.
//
// RECOVERY-ONLY: salvage decides that the file will never grow again and
// amputates its tail. A journal that is still being appended to routinely
// shows a partially-written final record; live-tail readers (replication,
// tail-follow) must use ScanJournalTail below, which reports such a tail
// as retryable instead of quarantining acknowledged-in-flight bytes.
Result<JournalScan> SalvageJournal(const std::string& path,
                                   FileSystem* fs = nullptr);

// One framed record as seen by a tail-follower: the statement plus the
// framing fields a follower re-verifies on its own side.
struct TailRecord {
  uint64_t seq = 0;
  uint32_t crc = 0;  // CRC32 over "<seq> <statement>", as framed on disk
  std::string statement;
};

// The result of one incremental live-tail read (see ScanJournalTail).
struct TailScan {
  // 2 once the header is read (or skipped: offset > 0); 0 when it is not
  // (empty, mid-append or damaged).
  int format = 0;
  uint64_t epoch = 0;  // the header's epoch, when this read parsed it
  std::vector<TailRecord> records;
  // Byte offset just past the last complete record consumed (or past the
  // header when no record was). Pass it back as the next read's `offset`.
  uint64_t end_offset = 0;
  // Trailing bytes after end_offset form an incomplete record (no
  // terminating newline yet): an append in flight, or a torn tail that
  // recovery has not yet adjudicated. The reader retries later — it must
  // never salvage (that decision belongs to recovery alone).
  bool partial_tail = false;
  // Non-OK only for damage that cannot be an append in flight: a file
  // that is not a journal, a malformed header, or a *complete* line with
  // malformed framing, a length or CRC mismatch, or a sequence
  // discontinuity. The scan stops at the damaged record.
  Status error;
};

// Incrementally parses the framed records of a journal starting at byte
// `offset` (0 = start of file; the header is parsed and skipped),
// expecting the first record to carry `expected_seq` (0 = accept whatever
// sequence the first record carries, then require contiguity). Reads at
// most `max_records` records. Purely observational: never truncates,
// renames, or quarantines anything — safe against a journal that another
// process is appending to. Records are decoded exactly as ScanJournal
// decodes them; only a torn last record is read differently (retryable
// `partial_tail` here, a salvageable `tail_error` there).
Result<TailScan> ScanJournalTail(const std::string& path, uint64_t offset,
                                 uint64_t expected_seq, size_t max_records,
                                 FileSystem* fs = nullptr);

// The durable frontier of a journal as sampled by a replication source:
// every record up to (epoch, seq) is fdatasync-durable and safe to ship.
// `drained` reports whether every statement accepted for commit had
// reached disk at sampling time (the condition under which a follower
// that catches up to this horizon has seen *everything* committed).
struct JournalHorizon {
  // `handoff_seq` value meaning "the previous epoch's extent is unknown".
  static constexpr uint64_t kNoHandoff = ~0ULL;

  uint64_t epoch = 0;
  uint64_t seq = 0;   // last durable record of `epoch`; 0 = none yet
  bool drained = true;
  // The final seq of epoch `epoch - 1`, when the provider witnessed the
  // rotation that ended it (kNoHandoff otherwise). Lets a follower that
  // had fully consumed the previous epoch roll to `epoch` even after a
  // checkpoint deleted the rotated file — without this, every checkpoint
  // would force a snapshot resync on followers that missed nothing.
  uint64_t handoff_seq = kNoHandoff;
};

// Implemented by journal owners that know their durable frontier
// (GroupCommitJournal). A ReplicationSource constructed without one falls
// back to shipping whatever is on disk — correct only for files no
// writer holds open (offline copies, a closed journal).
class HorizonProvider {
 public:
  virtual ~HorizonProvider() = default;
  virtual JournalHorizon ReplicationHorizon() const = 0;
};

class Journal {
 public:
  Journal() = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal() { Close(); }

  // Opens (creating or appending to) the journal file. An existing file
  // with a torn tail is salvaged first (tail quarantined to
  // `<path>.corrupt`) so new records are never appended after corrupt
  // bytes; a new or empty file (or one whose header was torn) starts a
  // journal stamped with options.epoch. A file that is not a v2 journal
  // fails with Corruption and is left as it was.
  Status Open(const std::string& path, const JournalOptions& options = {});
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  uint64_t epoch() const { return epoch_; }

  // Appends one statement; never syncs (see Sync). Statements cannot
  // contain raw newlines — canonical text writes a literal's newline as
  // `\n` — so the framing is unambiguous; a raw newline is rejected.
  Status Append(std::string_view statement);

  // An fdatasync of everything appended so far: the owner's commit point.
  Status Sync();

  // Number of statements appended through this handle.
  size_t appended() const { return appended_; }

  // Sequence number of the last record in the current epoch (0 when the
  // epoch is still empty). Replication sources use it to bound shipping.
  uint64_t last_seq() const { return next_seq_ - 1; }

  // Number of fdatasyncs issued through Sync() on this handle — the
  // denominator group commit optimizes; benchmarks report it as a
  // counter.
  size_t sync_count() const { return sync_count_; }

  // Renames the live journal aside to RotatedPath(path, epoch) and starts
  // a fresh journal at `path` with epoch+1. The rotated file is the
  // durable record of this epoch until a snapshot covering it lands; see
  // RecoveryManager::Checkpoint for the protocol. Returns the rotated
  // path.
  Result<std::string> Rotate();

  // Where Rotate parks the journal of `epoch`.
  static std::string RotatedPath(const std::string& path, uint64_t epoch);

  void Close();

  // Replays a journal file through `active`, statement by statement, so
  // trigger and constraint definitions replay and triggers fire. Returns
  // the number of statements applied. Fails fast (Corruption) on the
  // first statement the database rejects, and on a torn tail — strict
  // semantics for callers that need an exact transaction count; recovery
  // goes through RecoveryManager, which salvages instead.
  static Result<size_t> Replay(const std::string& path,
                               ActiveDatabase* active);

  // Replays at most the first `max_statements` statements. Since the
  // journal totally orders all transactions, a prefix replay reconstructs
  // the database *as of transaction n* — a transaction-time travel
  // primitive on top of the valid-time model (the "different notions of
  // time" extension the paper's Section 1.1 anticipates).
  static Result<size_t> ReplayPrefix(const std::string& path,
                                     ActiveDatabase* active,
                                     size_t max_statements);

 private:
  Status WriteHeader();
  FileSystem* fs() const;

  std::string path_;
  std::unique_ptr<WritableFile> file_;
  JournalOptions options_;
  uint64_t epoch_ = 0;
  uint64_t next_seq_ = 1;
  size_t appended_ = 0;
  size_t sync_count_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_STORAGE_JOURNAL_H_

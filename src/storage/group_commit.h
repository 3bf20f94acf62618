// Cross-session group commit on top of the v2 journal (journal.h).
//
// A journal's owner decides when it syncs (journal.h). A multi-client
// front end wants commits from *concurrent sessions* batched into one
// fdatasync, with every caller's acknowledgement released only after the
// batch is durable. That is what GroupCommitJournal provides, as the
// CommitSink of a query Engine (query/session.h):
//
//   - Enqueue(stmt) is called by the engine while it holds the writer
//     lock: the statement is buffered and assigned the next sequence
//     number, so buffer order == commit order == journal order. A
//     closed or poisoned sink rejects the enqueue outright (ticket with
//     seq == 0 and the failure in Ticket::status) — no ticket is ever
//     issued that could drive a flush against a dead journal.
//   - Await(ticket) blocks until the statement is on disk. The first
//     awaiting thread with pending work elects itself *leader*: it takes
//     up to max_batch pending statements (optionally waiting max_delay
//     for more to arrive), appends them all, issues ONE fdatasync, marks
//     them durable and wakes every waiter. Threads that arrive while a
//     leader is flushing simply wait — their statements ride the next
//     batch. Under contention the fdatasync count approaches
//     (commits / batch size); a lone committer degenerates to one sync
//     per statement.
//
// Failure model: if an append or sync fails, the sink is poisoned — the
// failed batch's waiters and every later Await get the sticky error.
// Nothing after a lost write can be acknowledged, so the journal prefix
// property (acknowledged => durable => replayable) survives any crash:
// recovery lands on a whole-batch boundary (modulo torn-tail salvage of
// never-acknowledged records).
//
// On-disk format is untouched: this is journal v2, and the sink owns
// every sync point.
#ifndef TCHIMERA_STORAGE_GROUP_COMMIT_H_
#define TCHIMERA_STORAGE_GROUP_COMMIT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "query/session.h"
#include "storage/journal.h"

namespace tchimera {

struct GroupCommitOptions {
  // Most statements one batch may carry.
  size_t max_batch = 64;
  // How long a leader lingers for followers before flushing a non-full
  // batch. 0 (default) = flush immediately: batching then comes purely
  // from commits that piled up while the previous batch was syncing —
  // no added latency, and still one sync per pile-up. Even when set, a
  // leader whose pending statements already cover the entire non-durable
  // backlog (in particular a lone committer) skips the linger: there is
  // nobody to wait for, so single-writer latency never pays max_delay.
  std::chrono::microseconds max_delay{0};
};

class EpochFence;  // storage/replication.h

class GroupCommitJournal final : public CommitSink, public HorizonProvider {
 public:
  GroupCommitJournal() = default;
  GroupCommitJournal(const GroupCommitJournal&) = delete;
  GroupCommitJournal& operator=(const GroupCommitJournal&) = delete;

  // Opens the underlying journal (same semantics as Journal::Open).
  Status Open(const std::string& path,
              const JournalOptions& journal_options = {},
              const GroupCommitOptions& options = {});
  bool is_open() const;
  void Close();

  // CommitSink: see class comment. Thread-safe.
  Ticket Enqueue(std::string_view statement) override;
  Status Await(Ticket ticket) override;

  // HorizonProvider: the durable frontier replication may ship up to.
  // Updated after every successful batch sync and after WithQuiesced
  // returns (a checkpoint may have rotated the journal). Records beyond
  // the horizon exist only as unsynced bytes a crash could drop — a
  // source that shipped them could make a follower run ahead of a
  // recovered primary, which is divergence.
  JournalHorizon ReplicationHorizon() const override;

  // Fences this sink under `fence` with the given authority token
  // (typically the journal's epoch at open/attach time — the token stays
  // fixed across rotations; see storage/replication.h). Once a replica
  // promotion fences the token, every Enqueue is rejected and WithQuiesced
  // (the checkpoint path) fails: a recovered ex-primary cannot
  // double-serve. Call during single-threaded setup.
  void AttachFence(const EpochFence* fence, uint64_t authority_token);
  uint64_t authority_token() const { return authority_token_; }

  // Drains every pending statement to disk, then runs `fn` on the
  // underlying journal with all group-commit activity excluded — the
  // checkpoint path (Rotate + snapshot need the journal quiesced).
  // Callers must also hold the engine's writer lock (WithExclusive) so
  // no new Enqueue can race; that lock ordering (writer lock, then sink
  // mutex) matches the write path and cannot deadlock.
  Status WithQuiesced(const std::function<Status(Journal&)>& fn);

  // Diagnostics / benchmarks (racy reads are fine for reporting).
  uint64_t enqueued() const;
  uint64_t durable() const;
  // Completed group commits: exactly the number of fdatasyncs issued for
  // statement batches.
  uint64_t batches() const;

 private:
  // Leads one batch: takes pending statements, appends + syncs them with
  // `lock` released, publishes the result. Pre: lock held, no leader
  // active, pending work exists. Post: lock held, leader flag cleared,
  // waiters notified.
  void LeadBatch(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Journal journal_;
  GroupCommitOptions options_;
  std::deque<std::string> pending_;  // statements not yet taken by a batch
  uint64_t enqueued_ = 0;            // last ticket issued
  uint64_t taken_ = 0;               // last statement handed to a batch
  uint64_t durable_ = 0;             // last statement known on disk
  uint64_t batches_ = 0;
  bool leader_active_ = false;
  Status sticky_;  // first append/sync failure; poisons the sink

  // Durable frontier (see ReplicationHorizon). Guarded by mu_ — the
  // journal's own counters cannot be read while a leader appends off-lock.
  uint64_t horizon_epoch_ = 0;
  uint64_t horizon_seq_ = 0;
  // Final seq of epoch horizon_epoch_ - 1 if this sink witnessed the
  // rotation that ended it (see JournalHorizon::handoff_seq).
  uint64_t horizon_handoff_seq_ = JournalHorizon::kNoHandoff;

  const EpochFence* fence_ = nullptr;  // not owned
  uint64_t authority_token_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_STORAGE_GROUP_COMMIT_H_

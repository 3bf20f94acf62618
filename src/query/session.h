// The concurrent execution engine: Sessions over a shared Engine.
//
// Layering (top to bottom):
//
//   Session   — one per client (thread). Parses each statement once and
//               routes it by its kind (TraitsOf in query/ast.h): reads
//               (select / snapshot / history / when / show / explain)
//               run against a ReadSnapshot, concurrently with every other
//               reader; everything else goes to the Engine's write path
//               with the parse. Owns its own DiagnosticEngine, so
//               the "one engine per lint run" contract
//               (analysis/diagnostic.h) holds without locks.
//   Engine    — wraps the database in a VersionedDatabase (MVCC: reads
//               are lock-free loads of the published version) and runs
//               every write through an ActiveDatabase facade over the
//               copy it writes (triggers, constraints, `check`; the
//               definitions are part of the database). Writes run
//               optimistically by default: the statement executes
//               against a private OptimisticTransaction copy with no
//               lock held, then CommitTransaction validates its write
//               footprint against concurrently committed versions and —
//               inside the only serialized span — enqueues the statement
//               with the CommitSink (so journal order == commit order)
//               and publishes. A validation loss (Status::Conflict) is
//               retried a bounded number of times against a fresh base;
//               persistent losers fall back to the exclusive WriteGuard
//               path, which also serves the exclusive kinds (class and
//               index DDL, trigger / constraint definitions) outright.
//               Durability is awaited after the lock is released — the
//               group-commit window: many sessions can be between
//               enqueue and durable at once, and one fdatasync
//               acknowledges them all.
//   CommitSink — the durability boundary. storage/group_commit.h is the
//               real implementation (cross-session group commit); a null
//               sink (in-memory engines) acknowledges immediately.
//
// A Session is NOT thread-safe — it is the per-client handle. The Engine
// is: any number of sessions on any threads may execute concurrently.
//
// See docs/CONCURRENCY.md for the full protocol and tuning knobs.
#ifndef TCHIMERA_QUERY_SESSION_H_
#define TCHIMERA_QUERY_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostic.h"
#include "common/result.h"
#include "core/db/versioned_db.h"
#include "query/lower.h"

namespace tchimera {

// --- plan cache --------------------------------------------------------------

// One cached compilation: either a lowered plan or a remembered fallback
// reason (negative entry — re-lowering a statement the compiler cannot
// handle would waste the type-check every call). Immutable once
// published; shared by every session that executes the same text.
struct CachedPlan {
  std::optional<LoweredPlan> plan;
  std::string fallback_reason;  // set iff !plan
};

// Canonical cache key for a statement: its canonical text
// (CanonicalText in query/lexer.h, the same as Statement::text) —
// comments dropped, whitespace between tokens one space, literals kept
// byte-for-byte. Deliberately NOT case-folded — identifiers are
// case-sensitive. A text that does not lex is its own key.
std::string NormalizePlanKey(std::string_view statement);

// The engine-wide compiled-statement cache, keyed on normalized text and
// guarded by the schema version the plan was compiled under: a lookup
// with a newer schema version evicts the stale entry (DDL invalidation).
// Thread-safe; bounded (kMaxEntries, stale-first eviction).
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;  // entries evicted for a stale schema
  };

  static constexpr size_t kMaxEntries = 256;

  // The cached plan compiled under exactly `schema_version`, or nullptr
  // (miss). An entry compiled under a different version is dropped.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key,
                                           uint64_t schema_version);
  void Insert(const std::string& key, uint64_t schema_version,
              std::shared_ptr<const CachedPlan> plan);

  Stats stats() const;
  size_t size() const;

 private:
  struct Entry {
    uint64_t schema_version = 0;
    std::shared_ptr<const CachedPlan> plan;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  Stats stats_;
};

// Where committed statements go to become durable. Enqueue is called by
// the engine while it still holds the writer lock (cheap: buffer the
// statement, assign a ticket); Await is called after the lock is
// released and may block (this is where group commit batches form).
// Implementations must be thread-safe.
class CommitSink {
 public:
  struct Ticket {
    uint64_t seq = 0;  // 0 = nothing enqueued (Await returns OK)
    // An Enqueue that fails fast (closed or poisoned sink) reports it
    // here with seq == 0: the statement never entered a batch, so there
    // is nothing to await — the engine surfaces this status instead.
    Status status = Status::OK();
  };

  virtual ~CommitSink() = default;
  virtual Ticket Enqueue(std::string_view statement) = 0;
  virtual Status Await(Ticket ticket) = 0;
};

// How a write that loses optimistic validation (StatusCode::kConflict)
// is retried. The policy belongs to the caller, not the engine: an
// embedded session wants guaranteed progress (bounded retry, then take
// the writer lock), while a network front end wants a per-request retry
// budget after which the *client* is told to retry — backpressure, not
// a lock convoy (see src/server/server.h).
struct WriteRetryPolicy {
  // Optimistic attempts before the policy gives up (clamped to >= 1).
  int max_optimistic_attempts = 3;
  // What "giving up" means: true = fall back to the exclusive writer
  // lock (progress is guaranteed even when every writer touches the same
  // slot); false = surface the final kConflict to the caller, who owns
  // the retry. Statements that *require* the exclusive path (schema and
  // definition verbs) always take it, whatever this says.
  bool exclusive_fallback = true;
};

class Session;

// A primary-side handle tracking how far one replica has provably
// replayed, in primary MVCC versions. The shipping pump
// (storage/replication.h) advances it whenever a replica reaches a
// drained durable horizon; Engine::min_replicated_version() aggregates
// the leases into the watermark that decides read-your-writes routing.
// Monotone and lock-free on both sides.
class ReplicaLease {
 public:
  explicit ReplicaLease(std::string name) : name_(std::move(name)) {}
  const std::string& name() const { return name_; }

  // The highest primary version this replica is known to reflect.
  uint64_t replicated_version() const {
    return version_.load(std::memory_order_acquire);
  }

  // Monotone advance (a stale pump round can never move a lease back).
  void AdvanceReplicatedVersion(uint64_t version) {
    uint64_t cur = version_.load(std::memory_order_relaxed);
    while (cur < version &&
           !version_.compare_exchange_weak(cur, version,
                                           std::memory_order_acq_rel)) {
    }
  }

 private:
  std::string name_;
  std::atomic<uint64_t> version_{0};
};

// How stale a read a session tolerates when the deployment routes reads
// to replicas (see docs/REPLICATION.md).
enum class ReadStaleness {
  // Replica reads are admissible only when every registered replica has
  // replayed past this session's last write (the default: a client never
  // fails to see its own writes).
  kReadYourWrites,
  // Any replica snapshot will do; the client accepts bounded lag.
  kEventual,
};

class Engine {
 public:
  // Wraps `db` (nullptr = a fresh database).
  explicit Engine(std::unique_ptr<Database> db = nullptr,
                  size_t max_cascade_depth = 16);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Installs the durability sink (nullptr = in-memory: commits are
  // acknowledged immediately). Call during single-threaded setup, before
  // concurrent sessions run — typically after recovery replay, so the
  // replay itself is not re-journaled.
  void set_commit_sink(CommitSink* sink) { sink_ = sink; }

  // A new session bound to this engine. Sessions are movable, cheap, and
  // single-threaded; the engine must outlive them.
  Session OpenSession();

  // A pinned read view (see core/db/versioned_db.h). Safe from any
  // thread; never blocks (one atomic load), and holding it never blocks
  // writers.
  ReadSnapshot OpenSnapshot() const { return vdb_.OpenSnapshot(); }

  // The latest committed version.
  uint64_t version() const { return vdb_.version(); }

  // Runs `fn` with the writer lock held (no concurrent writer; readers
  // keep their pinned versions, which is all a checkpoint needs — the
  // tip equals the last committed state). On success the tip is
  // republished, so any mutation `fn` made becomes visible.
  Status WithExclusive(const std::function<Status(Database&)>& fn);

  // The underlying database, bypassing all locking. Strictly for
  // single-threaded phases: recovery replay before sessions exist, test
  // setup, teardown inspection.
  Database& writer_db() { return vdb_.writer_db(); }

  // Optimistic commits that lost validation and were retried (includes
  // attempts that later succeeded). Tests and bench read this.
  uint64_t conflict_count() const { return vdb_.conflict_count(); }

  // Registers a replica with this (primary) engine and returns its
  // lease. The engine holds only a weak reference: dropping the returned
  // shared_ptr (replica decommissioned) removes the replica from the
  // watermark with no explicit unregister call.
  std::shared_ptr<ReplicaLease> RegisterReplica(std::string name);

  // The replicated watermark: the highest version every *live* replica
  // is known to reflect (minimum over the registered leases). With no
  // replicas registered, returns version() — there is nobody lagging, so
  // every committed version is "replicated". Expired leases are pruned
  // in passing.
  uint64_t min_replicated_version() const;

  // The engine-wide compiled-statement cache (see PlanCache). Sessions
  // consult it on the read path; DDL invalidates through the schema
  // version each pinned snapshot carries (Database::schema_version).
  PlanCache& plan_cache() { return plan_cache_; }

 private:
  friend class Session;

  // The write path for one parsed statement: optimistic with retry per
  // `policy`, then exclusive fallback or a surfaced kConflict (see
  // WriteRetryPolicy). Every attempt executes the same parse, and a
  // journaled kind hands its canonical text to the sink.
  Result<std::string> ExecuteWrite(Statement* stmt, DiagnosticEngine* lint,
                                   const WriteRetryPolicy& policy);
  // One optimistic attempt: execute on a private transaction copy, then
  // validate+publish. Status::Conflict means "lost the race, retry".
  Result<std::string> TryOptimisticWrite(Statement* stmt,
                                         DiagnosticEngine* lint);
  // The serialized fallback: writer lock held across execute + enqueue +
  // publish. Also the only path for the exclusive kinds.
  Result<std::string> ExecuteWriteExclusive(Statement* stmt,
                                            DiagnosticEngine* lint);

  // Replica leases (weak: a dropped lease is an unregistered replica).
  // Guarded by replicas_mu_; never taken together with any other engine
  // lock, so it cannot participate in a lock cycle.
  mutable std::mutex replicas_mu_;
  mutable std::vector<std::weak_ptr<ReplicaLease>> replicas_;

  VersionedDatabase vdb_;
  size_t max_cascade_depth_;
  CommitSink* sink_ = nullptr;
  PlanCache plan_cache_;
};

// One client's handle. Execute() is the single entry point: reads run
// concurrently on a snapshot, writes serialize through the engine and
// return only once durable (per the engine's sink). A select/when is
// lowered to an ExecProgram (consulting the engine's plan cache) and run
// on the batch VM; non-lowerable statements and every other read verb
// tree-walk.
class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Result<std::string> Execute(std::string_view statement);

  // Opt-in lint: findings accumulate in diags() (this session's private
  // engine; never shared across threads).
  void set_lint_enabled(bool enabled) { lint_enabled_ = enabled; }
  DiagnosticEngine& diags() { return *diags_; }

  // The conflict-retry policy for this session's writes (default: 3
  // optimistic attempts, then the exclusive lock). A server front end
  // sets {budget, false} so an exhausted budget surfaces kConflict as a
  // retryable wire error instead of convoying on the writer lock.
  void set_write_retry_policy(const WriteRetryPolicy& policy) {
    write_retry_policy_ = policy;
  }
  const WriteRetryPolicy& write_retry_policy() const {
    return write_retry_policy_;
  }

  // A pinned read view for direct (C++ API) reads.
  ReadSnapshot snapshot() const { return engine_->OpenSnapshot(); }

  // Read routing policy for deployments with replicas. The session only
  // *answers* the routing question (CanReadFromReplica); actually sending
  // the read to a replica's engine is the front end's move.
  void set_read_staleness(ReadStaleness staleness) {
    read_staleness_ = staleness;
  }
  ReadStaleness read_staleness() const { return read_staleness_; }

  // The primary version of this session's most recent successful write
  // (0 = never wrote). Conservative: sampled from the engine tip after
  // the write, so it is >= the write's own version — read-your-writes
  // stays safe, at worst a read is routed to the primary unnecessarily.
  uint64_t last_write_version() const { return last_write_version_; }

  // True when this session's staleness policy admits serving its next
  // read from a replica: always for kEventual; for kReadYourWrites, only
  // once the replicated watermark has passed the session's last write.
  bool CanReadFromReplica() const {
    if (read_staleness_ == ReadStaleness::kEventual) return true;
    return engine_->min_replicated_version() >= last_write_version_;
  }

 private:
  friend class Engine;
  explicit Session(Engine* engine)
      : engine_(engine), diags_(std::make_unique<DiagnosticEngine>()) {}

  // The compiled read path for one parsed select/when: consult the plan
  // cache (keyed on `key` + the snapshot's schema version), lower on a
  // miss, run the VM. Returns nullopt when the statement must
  // tree-walk (negative cache entry); type errors propagate unchanged.
  Result<std::optional<std::string>> TryCompiledRead(Statement* stmt,
                                                     const Database& db,
                                                     const std::string& key);

  Engine* engine_;
  // unique_ptr so Session stays movable with a stable address to hand to
  // the interpreter during a statement.
  std::unique_ptr<DiagnosticEngine> diags_;
  bool lint_enabled_ = false;
  WriteRetryPolicy write_retry_policy_;
  ReadStaleness read_staleness_ = ReadStaleness::kReadYourWrites;
  uint64_t last_write_version_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_SESSION_H_

#include "query/session.h"

#include <algorithm>
#include <utility>

#include "analysis/query_analyzer.h"
#include "query/interpreter.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/vm.h"
#include "triggers/trigger.h"

namespace tchimera {

// --- plan cache --------------------------------------------------------------

std::string NormalizePlanKey(std::string_view statement) {
  Result<std::vector<Token>> tokens = Tokenize(statement);
  // A text that does not lex never parses; verbatim, its key cannot
  // collide with a canonical text (which always lexes).
  if (!tokens.ok()) return std::string(statement);
  return CanonicalText(statement, *tokens);
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    const std::string& key, uint64_t schema_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.schema_version != schema_version) {
    // Compiled under a different schema: a DDL committed since. Evict.
    map_.erase(it);
    ++stats_.invalidations;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second.plan;
}

void PlanCache::Insert(const std::string& key, uint64_t schema_version,
                       std::shared_ptr<const CachedPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.size() >= kMaxEntries && map_.count(key) == 0) {
    // Evict entries compiled under other schema versions first (they can
    // never hit again once every reader sees the current schema).
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->second.schema_version != schema_version) {
        it = map_.erase(it);
        ++stats_.invalidations;
      } else {
        ++it;
      }
    }
    // Still full: drop everything rather than grow without bound. A
    // workload with >kMaxEntries distinct hot statements re-compiles;
    // correctness is unaffected.
    if (map_.size() >= kMaxEntries) map_.clear();
  }
  map_[key] = Entry{schema_version, std::move(plan)};
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

Engine::Engine(std::unique_ptr<Database> db, size_t max_cascade_depth)
    : vdb_(std::move(db)), max_cascade_depth_(max_cascade_depth) {}

Session Engine::OpenSession() { return Session(this); }

std::shared_ptr<ReplicaLease> Engine::RegisterReplica(std::string name) {
  auto lease = std::make_shared<ReplicaLease>(std::move(name));
  std::lock_guard<std::mutex> lock(replicas_mu_);
  replicas_.push_back(lease);
  return lease;
}

uint64_t Engine::min_replicated_version() const {
  std::lock_guard<std::mutex> lock(replicas_mu_);
  uint64_t min_version = 0;
  bool any = false;
  size_t live = 0;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    std::shared_ptr<ReplicaLease> lease = replicas_[i].lock();
    if (!lease) continue;  // decommissioned replica: drop from the set
    if (live != i) replicas_[live] = std::move(replicas_[i]);  // no self-move
    ++live;
    uint64_t v = lease->replicated_version();
    min_version = any ? std::min(min_version, v) : v;
    any = true;
  }
  replicas_.resize(live);
  // No replicas => nothing can lag: every committed version counts as
  // replicated, and read-your-writes routing degenerates to "always OK".
  return any ? min_version : vdb_.version();
}

Status Engine::WithExclusive(const std::function<Status(Database&)>& fn) {
  WriteGuard guard = vdb_.BeginWrite();
  Status status = fn(guard.db());
  // Republish on success: `fn` may have mutated the tip (surgery), and
  // snapshots only ever see published versions.
  if (status.ok()) guard.Commit();
  return status;
}

Result<std::string> Engine::ExecuteWrite(Statement* stmt,
                                         DiagnosticEngine* lint,
                                         const WriteRetryPolicy& policy) {
  if (TraitsOf(stmt->kind).exclusive) {
    return ExecuteWriteExclusive(stmt, lint);
  }
  const int attempts = std::max(policy.max_optimistic_attempts, 1);
  Result<std::string> result = Status::Internal("write never attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // Lint only on the first attempt — retries re-execute the same parse
    // and would only duplicate every finding.
    result = TryOptimisticWrite(stmt, attempt == 0 ? lint : nullptr);
    if (result.ok() || result.status().code() != StatusCode::kConflict) {
      return result;
    }
    // Lost the validation race — retry against a fresh base. Statement
    // re-execution is correct here: nothing was published or journaled.
  }
  if (!policy.exclusive_fallback) {
    // The budget is spent and the caller owns what happens next: a
    // server surfaces this kConflict as a retryable wire error instead
    // of convoying every hot-slot writer onto the exclusive lock.
    return result;
  }
  // Contention this persistent means the writers genuinely serialize;
  // stop burning copies and take the lock. This also guarantees progress
  // for worst-case workloads (every writer on the same slot).
  return ExecuteWriteExclusive(stmt, nullptr);
}

Result<std::string> Engine::TryOptimisticWrite(Statement* stmt,
                                               DiagnosticEngine* lint) {
  OptimisticTransaction txn = vdb_.BeginTransaction();
  // A facade over the private copy: the copy's triggers fire and its
  // constraints check against the transaction's own state, and their
  // mutations land in its write footprint like any others.
  ActiveDatabase facade(&txn.db(), max_cascade_depth_);
  facade.set_lint(lint);
  Result<std::string> result = facade.Execute(stmt);
  if (!result.ok()) return result;  // rejected before mutating anything
  CommitSink::Ticket ticket;
  const bool durable = sink_ != nullptr && TraitsOf(stmt->kind).journaled;
  Result<uint64_t> committed = vdb_.CommitTransaction(
      &txn, [this, stmt, durable, &ticket]() -> Status {
        // Runs under the writer mutex, after validation succeeded:
        // enqueue order is commit order. A fail-fast enqueue (closed or
        // poisoned sink) aborts the commit before anything publishes —
        // the optimistic path never applies a statement it cannot
        // journal.
        if (!durable) return Status::OK();
        ticket = sink_->Enqueue(stmt->text);
        if (ticket.seq == 0 && !ticket.status.ok()) return ticket.status;
        return Status::OK();
      });
  if (!committed.ok()) return committed.status();
  if (ticket.seq != 0) {
    TCH_RETURN_IF_ERROR(sink_->Await(ticket));
  }
  return result;
}

Result<std::string> Engine::ExecuteWriteExclusive(Statement* stmt,
                                                  DiagnosticEngine* lint) {
  WriteGuard guard = vdb_.BeginWrite();
  ActiveDatabase facade(&guard.db(), max_cascade_depth_);
  facade.set_lint(lint);
  Result<std::string> result = facade.Execute(stmt);
  if (!result.ok()) return result;  // nothing mutated, nothing to publish
  // Enqueue before releasing the lock: writers are serialized, so the
  // sink receives statements in exactly commit order — replaying the
  // journal reproduces the database (oids and all). The enqueue is a
  // buffer append; the expensive part (fdatasync) happens in Await,
  // outside the lock, where commits from concurrent sessions batch.
  CommitSink::Ticket ticket;
  if (sink_ != nullptr && TraitsOf(stmt->kind).journaled) {
    ticket = sink_->Enqueue(stmt->text);
  }
  // Commit publishes the new version AND releases the writer lock (the
  // two are fused — see WriteGuard). Await happens after, outside the
  // lock. On any durability failure the statement *is* applied in
  // memory but was never acknowledged as durable — the caller must
  // treat the error as "not committed" (the sink is closed or poisoned
  // and every later write fails too, so no acknowledged statement can
  // ever depend on a lost one).
  guard.Commit();
  if (ticket.seq != 0) {
    TCH_RETURN_IF_ERROR(sink_->Await(ticket));
  } else if (!ticket.status.ok()) {
    return ticket.status;  // enqueue failed fast: never entered a batch
  }
  return result;
}

Result<std::string> Session::Execute(std::string_view statement) {
  // The parse alone decides what the statement is (TraitsOf in ast.h).
  TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  if (!TraitsOf(stmt.kind).read) {
    Result<std::string> result = engine_->ExecuteWrite(
        &stmt, lint_enabled_ ? diags_.get() : nullptr, write_retry_policy_);
    if (result.ok()) {
      // Remember the engine tip for read-your-writes routing. The tip is
      // >= our write's version (others may have committed since), which
      // only errs toward routing the next read to the primary — safe.
      last_write_version_ = engine_->version();
    }
    return result;
  }
  // Read path: pin a snapshot and evaluate on this thread, concurrently
  // with other readers. The const_cast is sound: the interpreter's read
  // kinds call only const Database members, and Database has no mutable
  // caches.
  ReadSnapshot snap = engine_->OpenSnapshot();
  if (stmt.kind == Statement::Kind::kSelect ||
      stmt.kind == Statement::Kind::kWhen) {
    TCH_ASSIGN_OR_RETURN(std::optional<std::string> compiled,
                         TryCompiledRead(&stmt, snap.db(), stmt.text));
    if (compiled.has_value()) return *std::move(compiled);
    // Negative cache entry: fall through to the tree-walker below.
  }
  Interpreter interp(const_cast<Database*>(&snap.db()));
  if (lint_enabled_) interp.set_lint(diags_.get());
  return interp.ExecuteStatement(&stmt);
}

Result<std::optional<std::string>> Session::TryCompiledRead(
    Statement* stmt, const Database& db, const std::string& key) {
  PlanCache& cache = engine_->plan_cache();
  // The snapshot's own schema version: consistent with the class table
  // the plan compiles against, so a DDL committing concurrently can
  // never cache a plan under the wrong version.
  const uint64_t schema_version = db.schema_version();
  std::shared_ptr<const CachedPlan> cached =
      cache.Lookup(key, schema_version);
  if (cached == nullptr) {
    // Miss: lower now (type errors surface unchanged — the tree-walker
    // would report the identical error) and publish the outcome,
    // negative outcomes included.
    TCH_ASSIGN_OR_RETURN(LowerOutcome outcome, LowerStatement(stmt, db));
    auto fresh = std::make_shared<CachedPlan>();
    if (outcome.compiled()) {
      fresh->plan = std::move(outcome.plan);
    } else {
      fresh->fallback_reason = std::move(outcome.fallback_reason);
    }
    cache.Insert(key, schema_version, fresh);
    cached = std::move(fresh);
  }
  if (!cached->plan.has_value()) return std::optional<std::string>();
  // Lint runs on the unlowered AST, exactly like the interpreter path
  // (the analyzers never see bytecode).
  if (lint_enabled_) {
    if (stmt->kind == Statement::Kind::kSelect) {
      AnalyzeSelect(&*stmt->select, db, diags_.get());
    } else {
      AnalyzeWhen(&*stmt->when, db, diags_.get());
    }
  }
  const LoweredPlan& plan = *cached->plan;
  if (plan.kind == LoweredPlan::Kind::kSelect) {
    TCH_ASSIGN_OR_RETURN(std::vector<SelectRow> rows,
                         RunSelect(plan.program, db));
    return std::optional<std::string>(FormatSelectRows(rows));
  }
  TCH_ASSIGN_OR_RETURN(IntervalSet held, RunWhen(plan.program, db));
  return std::optional<std::string>(held.ToString());
}

}  // namespace tchimera

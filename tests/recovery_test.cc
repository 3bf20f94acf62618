// Crash-consistency tests for the recovery subsystem: crash-point
// enumeration through the fault-injection filesystem (every possible
// crash must recover to a committed prefix of the workload), snapshot
// atomicity, torn-tail salvage, corruption fuzzing (bit flips and
// truncations must never be loaded silently; the full-file and live-tail
// journal readers agree on every mutation), and the post-recovery
// consistency audit in all three modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "core/db/consistency.h"
#include "core/db/database.h"
#include "core/object/object.h"
#include "core/values/temporal_function.h"
#include "core/values/value.h"
#include "query/interpreter.h"
#include "query/session.h"
#include "storage/deserializer.h"
#include "storage/group_commit.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/serializer.h"

namespace tchimera {
namespace {

namespace stdfs = std::filesystem;

// A scratch directory wiped at construction, so every run starts from an
// empty disk.
std::string FreshDir(const std::string& name) {
  stdfs::path dir = stdfs::temp_directory_path() / ("tchimera_rec_" + name);
  std::error_code ec;
  stdfs::remove_all(dir, ec);
  stdfs::create_directories(dir, ec);
  return dir.string();
}

std::string ReadFileOrDie(const std::string& path) {
  auto r = FileSystem::Default()->ReadFileToString(path);
  EXPECT_TRUE(r.ok()) << path << ": " << r.status();
  return r.ok() ? *r : std::string();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// TCHIMERA_FUZZ_ITERS scales the fuzz tests (nightly CI raises it).
size_t FuzzIterations(size_t fallback) {
  const char* env = std::getenv("TCHIMERA_FUZZ_ITERS");
  if (env == nullptr) return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  return (end != env && *end == '\0' && v > 0) ? static_cast<size_t>(v)
                                               : fallback;
}

// Deterministic 64-bit LCG so fuzz failures reproduce.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 16;
  }
};

// The canonical workload: schema definition, object creation, references
// between objects, clock advancement, updates and a delete — every
// journaled verb class. Statement indices are the "transaction ids" the
// crash tests reason about.
const std::vector<std::string>& Workload() {
  static const std::vector<std::string>& statements =
      *new std::vector<std::string>{
          "define class person attributes name: temporal(string), "
          "birthyear: integer end",
          "create person (name: 'Ann', birthyear: 1970)",  // i1
          "create person (name: 'Bob', birthyear: 1980)",  // i2
          "define class fan attributes idol: person end",
          "create fan (idol: i1)",  // i3
          "tick 3",
          "update i1 set name = 'Anna'",
          "update i2 set name = 'Bobby'",
          "tick 2",
          "update i3 set idol = i2",
          "delete i1",
      };
  return statements;
}

// The checkpoint fires before this statement index.
constexpr size_t kCheckpointBefore = 6;

// refs[n] = canonical serialization (epoch 0) of the database after the
// first n workload statements.
std::vector<std::string> BuildReferenceStates() {
  std::vector<std::string> refs;
  Database db;
  Interpreter interp(&db);
  refs.push_back(SaveDatabaseToString(db, 0).value());
  for (const std::string& statement : Workload()) {
    auto r = interp.Execute(statement);
    EXPECT_TRUE(r.ok()) << statement << ": " << r.status();
    refs.push_back(SaveDatabaseToString(db, 0).value());
  }
  return refs;
}

// Index of `state` in `refs`, or npos.
size_t MatchPrefix(const std::vector<std::string>& refs,
                   const std::string& state) {
  for (size_t n = 0; n < refs.size(); ++n) {
    if (refs[n] == state) return n;
  }
  return std::string::npos;
}

// Runs `statements` through the production writer over `ffs` — sessions
// on an Engine whose commits group-commit to the journal — checkpointing
// once before statement `checkpoint_before`, the way the REPL and server
// do. Stops at the first failure (the injected crash). Returns how many
// statements were acknowledged: the group commit synced each one before
// releasing its session, so each is durable.
size_t RunThroughEngine(FaultInjectionFileSystem* ffs,
                        const std::string& snapshot_path,
                        const std::string& journal_path,
                        const std::vector<std::string>& statements,
                        size_t checkpoint_before) {
  Engine engine;
  GroupCommitJournal sink;
  JournalOptions options;
  options.fs = ffs;
  if (!sink.Open(journal_path, options).ok()) return 0;
  engine.set_commit_sink(&sink);
  Session session = engine.OpenSession();
  size_t committed = 0;
  for (size_t i = 0; i < statements.size(); ++i) {
    if (i == checkpoint_before) {
      // A checkpoint killed by the injected crash is not fatal here; the
      // next commit fails and ends the run.
      (void)engine.WithExclusive([&](Database& live) {
        return sink.WithQuiesced([&](Journal& journal) {
          return RecoveryManager::Checkpoint(live, &journal, snapshot_path,
                                             ffs);
        });
      });
    }
    if (!session.Execute(statements[i]).ok()) break;
    ++committed;
  }
  sink.Close();
  return committed;
}

size_t RunWorkload(FaultInjectionFileSystem* ffs,
                   const std::string& snapshot_path,
                   const std::string& journal_path) {
  return RunThroughEngine(ffs, snapshot_path, journal_path, Workload(),
                          kCheckpointBefore);
}

// The tentpole proof obligation: crash at every single mutating I/O
// operation of the workload (with three torn-write shapes each) and the
// recovered database must (a) pass the full consistency audit and (b) be
// byte-identical to a committed prefix — at least everything that was
// acknowledged, at most one in-flight statement more.
TEST(CrashRecoveryTest, EveryCrashPointRestoresACommittedPrefix) {
  const std::vector<std::string> refs = BuildReferenceStates();
  ASSERT_EQ(refs.size(), Workload().size() + 1);

  uint64_t total_ops = 0;
  {
    std::string dir = FreshDir("dry");
    FaultInjectionFileSystem ffs(FileSystem::Default());
    ASSERT_EQ(RunWorkload(&ffs, dir + "/snap.tchdb", dir + "/journal.tql"),
              Workload().size());
    total_ops = ffs.ops_seen();
  }
  ASSERT_GT(total_ops, 20u) << "fault plumbing sees too few operations";

  for (uint64_t tail : {uint64_t{0}, uint64_t{7}, uint64_t{1} << 20}) {
    for (uint64_t at = 0; at < total_ops; ++at) {
      SCOPED_TRACE("crash at op " + std::to_string(at) + ", surviving tail " +
                   std::to_string(tail));
      std::string dir = FreshDir("crash");
      std::string snap = dir + "/snap.tchdb";
      std::string journal = dir + "/journal.tql";
      FaultInjectionFileSystem ffs(FileSystem::Default());
      FaultPlan plan;
      plan.mode = FaultPlan::Mode::kCrash;
      plan.at_op = at;
      plan.surviving_tail_bytes = tail;
      ffs.SetPlan(plan);
      size_t committed = RunWorkload(&ffs, snap, journal);
      ASSERT_TRUE(ffs.crashed());

      // "Reboot": the fault is gone, the surviving bytes are what they are.
      ffs.ClearPlan();
      RecoveryOptions options;
      options.audit = AuditMode::kFail;
      options.fs = &ffs;
      RecoveryManager manager(snap, journal, options);
      RecoveryStats stats;
      auto recovered = manager.Recover(&stats);
      ASSERT_TRUE(recovered.ok()) << recovered.status();

      auto state = SaveDatabaseToString(**recovered, 0);
      ASSERT_TRUE(state.ok()) << state.status();
      size_t n = MatchPrefix(refs, *state);
      ASSERT_NE(n, std::string::npos)
          << "recovered state matches no committed prefix";
      // Acknowledged == durable, so nothing acknowledged may be lost; at
      // most the single in-flight statement may additionally survive (a
      // torn write that happened to complete).
      EXPECT_GE(n, committed);
      EXPECT_LE(n, committed + 1);
    }
  }
}

// Crash-point enumeration for temporal secondary indexes: a workload
// whose journal carries index DDL (create, drop, both kinds) around a
// mid-run checkpoint whose snapshot persists INDEX records. At EVERY
// crash point the recovered database must (a) land on a committed
// prefix, as above, and (b) hold index state bit-identical to a
// from-scratch rebuild from its own objects — a crash mid-checkpoint or
// mid-statement may lose statements, but it must never leave an index
// inconsistent with the extents it covers.
TEST(CrashRecoveryTest, EveryCrashPointLeavesIndexesConsistentWithObjects) {
  const std::vector<std::string> workload = {
      "define class person attributes name: temporal(string), "
      "salary: temporal(integer) end",
      "create person (name: 'Ann', salary: 100)",  // i1
      "create person (name: 'Bob', salary: 200)",  // i2
      "create index psal on person (salary)",
      "tick 3",
      "update i1 set salary = 150",
      "create index plife on person lifespan",
      "update i2 set salary = 50 during [1,2]",
      "tick 2",
      "delete i2",
      "drop index plife",
  };
  constexpr size_t kCheckpointAt = 5;  // after `create index psal`

  // Reference states (canonical serialization includes INDEX records).
  std::vector<std::string> refs;
  {
    Database db;
    Interpreter interp(&db);
    refs.push_back(SaveDatabaseToString(db, 0).value());
    for (const std::string& statement : workload) {
      auto r = interp.Execute(statement);
      ASSERT_TRUE(r.ok()) << statement << ": " << r.status();
      refs.push_back(SaveDatabaseToString(db, 0).value());
    }
  }

  auto run_workload = [&](FaultInjectionFileSystem* ffs,
                          const std::string& snap,
                          const std::string& journal) {
    return RunThroughEngine(ffs, snap, journal, workload, kCheckpointAt);
  };

  uint64_t total_ops = 0;
  {
    std::string dir = FreshDir("idx_dry");
    FaultInjectionFileSystem ffs(FileSystem::Default());
    size_t committed =
        run_workload(&ffs, dir + "/snap.tchdb", dir + "/journal.tql");
    ASSERT_EQ(committed, workload.size());
    total_ops = ffs.ops_seen();
  }

  for (uint64_t at = 0; at < total_ops; ++at) {
    SCOPED_TRACE("crash at op " + std::to_string(at));
    std::string dir = FreshDir("idx_crash");
    std::string snap = dir + "/snap.tchdb";
    std::string journal = dir + "/journal.tql";
    FaultInjectionFileSystem ffs(FileSystem::Default());
    FaultPlan plan;
    plan.mode = FaultPlan::Mode::kCrash;
    plan.at_op = at;
    plan.surviving_tail_bytes = 7;
    ffs.SetPlan(plan);
    size_t committed = run_workload(&ffs, snap, journal);
    ffs.ClearPlan();

    RecoveryOptions options;
    options.audit = AuditMode::kFail;
    options.fs = &ffs;
    RecoveryManager manager(snap, journal, options);
    auto recovered = manager.Recover(nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status();

    auto state = SaveDatabaseToString(**recovered, 0);
    ASSERT_TRUE(state.ok()) << state.status();
    size_t n = std::string::npos;
    for (size_t k = 0; k < refs.size(); ++k) {
      if (refs[k] == *state) {
        n = k;
        break;
      }
    }
    ASSERT_NE(n, std::string::npos)
        << "recovered state matches no committed prefix";
    EXPECT_GE(n, committed);
    EXPECT_LE(n, committed + 1);

    // Index data is never persisted, only rebuilt — so the recovered
    // index must equal what a fresh rebuild from the recovered objects
    // produces (round-trip through the serializer rebuilds from scratch).
    auto reloaded = LoadDatabaseFromString(*state);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    EXPECT_EQ((*recovered)->DebugDumpIndexes(),
              (*reloaded)->DebugDumpIndexes());
  }
}

// Group commit appends a whole batch before its one fdatasync, so a crash
// inside a batch loses an unsynced suffix. Recovery must still land on a
// clean prefix — never a torn half-statement, never an audit failure —
// that keeps every acknowledged batch. The sink is driven directly, the
// way concurrent sessions fill one batch: the first batch is awaited
// (acknowledged), the rest is enqueued and awaited as a second batch.
TEST(CrashRecoveryTest, EveryCrashPointInAGroupCommitBatchKeepsAPrefix) {
  const std::vector<std::string> refs = BuildReferenceStates();
  constexpr size_t kFirstBatch = 4;
  struct BatchRun {
    size_t acknowledged = 0;
    size_t enqueued = 0;
  };
  auto run = [](FaultInjectionFileSystem* ffs, const std::string& journal) {
    BatchRun out;
    GroupCommitJournal sink;
    JournalOptions options;
    options.fs = ffs;
    if (!sink.Open(journal, options).ok()) return out;
    CommitSink::Ticket last;
    for (size_t i = 0; i < Workload().size(); ++i) {
      last = sink.Enqueue(Workload()[i]);
      if (last.seq == 0) break;
      out.enqueued = i + 1;
      if (out.enqueued == kFirstBatch || out.enqueued == Workload().size()) {
        if (!sink.Await(last).ok()) break;
        out.acknowledged = out.enqueued;
      }
    }
    sink.Close();
    return out;
  };

  uint64_t total_ops = 0;
  {
    std::string dir = FreshDir("batch_dry");
    FaultInjectionFileSystem ffs(FileSystem::Default());
    BatchRun dry = run(&ffs, dir + "/journal.tql");
    ASSERT_EQ(dry.acknowledged, Workload().size());
    total_ops = ffs.ops_seen();
  }

  for (uint64_t tail : {uint64_t{0}, uint64_t{9}}) {
    for (uint64_t at = 0; at < total_ops; ++at) {
      SCOPED_TRACE("crash at op " + std::to_string(at) + ", surviving tail " +
                   std::to_string(tail));
      std::string dir = FreshDir("batch_crash");
      std::string journal = dir + "/journal.tql";
      FaultInjectionFileSystem ffs(FileSystem::Default());
      FaultPlan plan;
      plan.mode = FaultPlan::Mode::kCrash;
      plan.at_op = at;
      plan.surviving_tail_bytes = tail;
      ffs.SetPlan(plan);
      BatchRun crashed = run(&ffs, journal);
      ffs.ClearPlan();

      RecoveryOptions options;
      options.audit = AuditMode::kFail;
      options.fs = &ffs;
      RecoveryManager manager(dir + "/snap.tchdb", journal, options);
      auto recovered = manager.Recover(nullptr);
      ASSERT_TRUE(recovered.ok()) << recovered.status();
      auto state = SaveDatabaseToString(**recovered, 0);
      ASSERT_TRUE(state.ok());
      size_t n = MatchPrefix(refs, *state);
      ASSERT_NE(n, std::string::npos);
      EXPECT_GE(n, crashed.acknowledged);
      EXPECT_LE(n, crashed.enqueued);
    }
  }
}

// The snapshot write is atomic: a crash at any of its operations leaves
// the previous snapshot byte-identical and structurally sound.
TEST(SnapshotAtomicityTest, CrashDuringSnapshotWriteLeavesOldOneIntact) {
  Database small;
  Interpreter small_interp(&small);
  ASSERT_TRUE(small_interp.Execute("tick 1").ok());
  Database big;
  Interpreter big_interp(&big);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(big_interp.Execute(Workload()[i]).ok());
  }

  std::string dir = FreshDir("atomic");
  std::string path = dir + "/snap.tchdb";
  FaultInjectionFileSystem ffs(FileSystem::Default());
  ASSERT_TRUE(SaveDatabaseToFile(small, path, 1, &ffs).ok());
  const std::string original = ReadFileOrDie(path);

  // Count the operations of one overwrite.
  ASSERT_TRUE(SaveDatabaseToFile(big, dir + "/probe.tchdb", 2, &ffs).ok());
  ffs.SetPlan(FaultPlan{});  // reset the counter
  ASSERT_TRUE(SaveDatabaseToFile(big, dir + "/probe.tchdb", 2, &ffs).ok());
  uint64_t ops = ffs.ops_seen();
  ASSERT_GE(ops, 3u);

  for (uint64_t at = 0; at < ops; ++at) {
    SCOPED_TRACE("crash at op " + std::to_string(at));
    FaultPlan plan;
    plan.mode = FaultPlan::Mode::kCrash;
    plan.at_op = at;
    plan.surviving_tail_bytes = 11;
    ffs.SetPlan(plan);
    Status s = SaveDatabaseToFile(big, path, 2, &ffs);
    EXPECT_FALSE(s.ok());
    ffs.ClearPlan();
    // The visible snapshot is still exactly the old one.
    EXPECT_EQ(ReadFileOrDie(path), original);
    auto info = ProbeSnapshotFile(path, &ffs);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info->integrity.ok()) << info->integrity;
  }

  // And once no fault is planned, the overwrite goes through.
  ASSERT_TRUE(SaveDatabaseToFile(big, path, 2, &ffs).ok());
  auto loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SaveDatabaseToString(**loaded, 0).value(),
            SaveDatabaseToString(big, 0).value());
}

// A torn v2 tail is quarantined to `<journal>.corrupt`, the valid prefix
// keeps replaying, and the journal accepts appends again after salvage.
TEST(JournalSalvageTest, TornTailIsQuarantinedAndAppendsContinue) {
  std::string dir = FreshDir("salvage");
  std::string path = dir + "/journal.tql";
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path).ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(journal.Append("tick " + std::to_string(i)).ok());
    }
    journal.Close();
  }
  std::string content = ReadFileOrDie(path);
  ASSERT_GT(content.size(), 5u);
  WriteFileOrDie(path, content.substr(0, content.size() - 5));

  auto scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->format, 2);
  EXPECT_EQ(scan->statements.size(), 2u);
  EXPECT_FALSE(scan->tail_error.ok());
  EXPECT_GT(scan->dropped_bytes, 0u);

  auto salvaged = SalvageJournal(path);
  ASSERT_TRUE(salvaged.ok());
  std::string corrupt = ReadFileOrDie(path + ".corrupt");
  EXPECT_EQ(corrupt.size(), salvaged->dropped_bytes);
  auto rescan = ScanJournal(path);
  ASSERT_TRUE(rescan.ok());
  EXPECT_TRUE(rescan->tail_error.ok());
  EXPECT_EQ(rescan->statements.size(), 2u);

  // Open salvages implicitly (idempotent here) and appending resumes the
  // sequence numbering where the valid prefix left off.
  Journal journal;
  ASSERT_TRUE(journal.Open(path).ok());
  ASSERT_TRUE(journal.Append("tick 9").ok());
  journal.Close();
  auto final_scan = ScanJournal(path);
  ASSERT_TRUE(final_scan.ok());
  EXPECT_TRUE(final_scan->tail_error.ok());
  ASSERT_EQ(final_scan->statements.size(), 3u);
  EXPECT_EQ(final_scan->statements[2], "tick 9");
  EXPECT_EQ(final_scan->last_seq, 3u);
}

// Every single-bit flip and every truncation of a v2 snapshot must be
// rejected with Corruption before any state is built.
TEST(FuzzTest, SnapshotBitFlipsAndTruncationsAreRejected) {
  Database db;
  Interpreter interp(&db);
  for (const std::string& statement : Workload()) {
    ASSERT_TRUE(interp.Execute(statement).ok()) << statement;
  }
  const std::string text = SaveDatabaseToString(db, 3).value();
  ASSERT_TRUE(LoadDatabaseFromString(text).ok());

  Rng rng{0x7c3a1f2db5e90d41ULL};
  size_t iterations = FuzzIterations(250);
  for (size_t i = 0; i < iterations; ++i) {
    std::string mutated = text;
    std::string what;
    if (rng.Next() % 2 == 0) {
      size_t pos = rng.Next() % mutated.size();
      int bit = static_cast<int>(rng.Next() % 8);
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      what = "bit " + std::to_string(bit) + " at byte " + std::to_string(pos);
    } else {
      size_t len = rng.Next() % mutated.size();
      mutated.resize(len);
      what = "truncated to " + std::to_string(len) + " bytes";
    }
    auto loaded = LoadDatabaseFromString(mutated);
    ASSERT_FALSE(loaded.ok()) << "corrupt snapshot (" << what
                              << ") loaded silently";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << what;
  }
}

// Corrupted journals never crash recovery and never yield a state that is
// not a clean workload prefix: recovery either fails or lands on refs[n].
TEST(FuzzTest, CorruptedJournalsRecoverToAPrefixOrFail) {
  const std::vector<std::string> refs = BuildReferenceStates();
  std::string dir = FreshDir("jfuzz");
  std::string path = dir + "/journal.tql";
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path).ok());
    for (const std::string& statement : Workload()) {
      ASSERT_TRUE(journal.Append(statement).ok());
    }
    journal.Close();
  }
  const std::string pristine = ReadFileOrDie(path);

  Rng rng{0x2fd40b17c98e6a53ULL};
  size_t iterations = FuzzIterations(250);
  for (size_t i = 0; i < iterations; ++i) {
    std::string mutated = pristine;
    std::string what;
    if (rng.Next() % 2 == 0) {
      size_t pos = rng.Next() % mutated.size();
      int bit = static_cast<int>(rng.Next() % 8);
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      what = "bit " + std::to_string(bit) + " at byte " + std::to_string(pos);
    } else {
      size_t len = rng.Next() % mutated.size();
      mutated.resize(len);
      what = "truncated to " + std::to_string(len) + " bytes";
    }
    WriteFileOrDie(path, mutated);
    std::error_code ec;
    stdfs::remove(path + ".corrupt", ec);  // salvage residue of prior iters

    RecoveryManager manager(dir + "/snap.tchdb", path);
    auto recovered = manager.Recover(nullptr);
    if (!recovered.ok()) continue;  // refusing corrupt input is always fine
    auto state = SaveDatabaseToString(**recovered, 0);
    ASSERT_TRUE(state.ok());
    EXPECT_NE(MatchPrefix(refs, *state), std::string::npos)
        << "corrupt journal (" << what
        << ") recovered to a state that is not a workload prefix";
  }
}

// The recovery reader (ScanJournal) and the live-tail reader
// (ScanJournalTail) decode records the same way: on every mutated journal
// they keep the same valid record prefix and stop at the same byte, and a
// file that is not a journal is Corruption for both.
TEST(FuzzTest, FullAndTailScansKeepTheSameRecordPrefix) {
  std::string dir = FreshDir("jscanfuzz");
  std::string path = dir + "/journal.tql";
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path).ok());
    for (const std::string& statement : Workload()) {
      ASSERT_TRUE(journal.Append(statement).ok());
    }
    journal.Close();
  }
  const std::string pristine = ReadFileOrDie(path);

  Rng rng{0x51e3a09c4b7d2f68ULL};
  size_t iterations = FuzzIterations(250);
  for (size_t i = 0; i < iterations; ++i) {
    std::string mutated = pristine;
    std::string what;
    if (rng.Next() % 2 == 0) {
      size_t pos = rng.Next() % mutated.size();
      int bit = static_cast<int>(rng.Next() % 8);
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      what = "bit " + std::to_string(bit) + " at byte " + std::to_string(pos);
    } else {
      size_t len = rng.Next() % mutated.size();
      mutated.resize(len);
      what = "truncated to " + std::to_string(len) + " bytes";
    }
    WriteFileOrDie(path, mutated);

    auto full = ScanJournal(path);
    auto tail = ScanJournalTail(path, /*offset=*/0, /*expected_seq=*/1,
                                /*max_records=*/SIZE_MAX);
    ASSERT_TRUE(tail.ok()) << what << ": " << tail.status();
    std::vector<std::string> tail_statements;
    for (const TailRecord& record : tail->records) {
      tail_statements.push_back(record.statement);
    }
    if (!full.ok()) {
      EXPECT_EQ(full.status().code(), StatusCode::kCorruption) << what;
      EXPECT_EQ(tail->error.code(), StatusCode::kCorruption) << what;
      EXPECT_TRUE(tail_statements.empty()) << what;
      continue;
    }
    EXPECT_EQ(tail_statements, full->statements) << what;
    if (full->format != 2) continue;  // no header: nothing was decoded
    EXPECT_EQ(tail->end_offset, full->valid_bytes) << what;
    // A clean end for one is a clean end for the other; a torn record is
    // partial for the tail reader and a tail error for the full scan.
    EXPECT_EQ(full->tail_error.ok(), tail->error.ok() && !tail->partial_tail)
        << what;
  }
}

// A corrupt snapshot fails recovery with Corruption before any journal
// replay or state construction happens.
TEST(RecoveryTest, CorruptSnapshotFailsRecoveryUpFront) {
  std::string dir = FreshDir("badsnap");
  std::string snap = dir + "/snap.tchdb";
  std::string journal_path = dir + "/journal.tql";
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(Workload()[0]).ok());
  ASSERT_TRUE(SaveDatabaseToFile(db, snap, 1).ok());

  std::string text = ReadFileOrDie(snap);
  text[text.size() / 2] = static_cast<char>(text[text.size() / 2] ^ 0x10);
  WriteFileOrDie(snap, text);

  RecoveryManager manager(snap, journal_path);
  RecoveryStats stats;
  auto recovered = manager.Recover(&stats);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(stats.statements_applied, 0u);
}

// The audit fixture: a database whose snapshot contains one object with a
// class history naming a class that never existed ("ghost"), and a second
// object referencing the first — so quarantining the first leaves the
// second dangling, which the next audit round must catch (the cascade).
std::string WriteCorruptedSnapshot(const std::string& dir) {
  Database db;
  Interpreter interp(&db);
  EXPECT_TRUE(interp
                  .Execute("define class person attributes "
                           "name: temporal(string), birthyear: integer end")
                  .ok());
  EXPECT_TRUE(
      interp.Execute("create person (name: 'Star', birthyear: 1970)").ok());
  EXPECT_TRUE(
      interp.Execute("define class fan attributes idol: person end").ok());
  EXPECT_TRUE(interp.Execute("create fan (idol: i1)").ok());
  EXPECT_TRUE(interp.Execute("tick 2").ok());
  EXPECT_TRUE(CheckDatabaseConsistency(db).ok());

  Object* star = db.GetMutableObject(Oid{1});
  EXPECT_NE(star, nullptr);
  TemporalFunction history;
  EXPECT_TRUE(history.AssertFrom(0, Value::String("ghost")).ok());
  star->RestoreState(star->lifespan(), std::move(history));
  EXPECT_FALSE(CheckDatabaseConsistency(db).ok());

  std::string snap = dir + "/snap.tchdb";
  EXPECT_TRUE(SaveDatabaseToFile(db, snap, 1).ok());
  return snap;
}

TEST(AuditTest, FailModeRejectsAnInconsistentRecoveredDatabase) {
  std::string dir = FreshDir("audit_fail");
  std::string snap = WriteCorruptedSnapshot(dir);
  RecoveryOptions options;
  options.audit = AuditMode::kFail;
  RecoveryManager manager(snap, dir + "/journal.tql", options);
  auto recovered = manager.Recover(nullptr);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kConsistencyViolation);
}

TEST(AuditTest, QuarantineModeEvictsTheCascadeAndHeals) {
  std::string dir = FreshDir("audit_quarantine");
  std::string snap = WriteCorruptedSnapshot(dir);
  RecoveryOptions options;
  options.audit = AuditMode::kQuarantine;
  RecoveryManager manager(snap, dir + "/journal.tql", options);
  RecoveryStats stats;
  auto recovered = manager.Recover(&stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  // i1 fails its own check (ghost class); evicting it scrubs the person
  // extent, which leaves i2's `idol: i1` dangling — evicted next round.
  EXPECT_EQ(stats.quarantined_objects, 2u);
  EXPECT_EQ((*recovered)->GetMutableObject(Oid{1}), nullptr);
  EXPECT_EQ((*recovered)->GetMutableObject(Oid{2}), nullptr);
  EXPECT_TRUE(CheckDatabaseConsistency(**recovered).ok());
}

TEST(AuditTest, OffModeTrustsTheReplay) {
  std::string dir = FreshDir("audit_off");
  std::string snap = WriteCorruptedSnapshot(dir);
  RecoveryOptions options;
  options.audit = AuditMode::kOff;
  RecoveryManager manager(snap, dir + "/journal.tql", options);
  auto recovered = manager.Recover(nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(CheckDatabaseConsistency(**recovered).ok());
}

// --- trigger and constraint definitions ---------------------------------

constexpr char kEmpSchema[] =
    "define class emp attributes v: temporal(integer) end";
constexpr char kBoost[] =
    "trigger boost on create of emp do update $self set v = 42";

// Recover() replays through the trigger-firing executor and must land on
// exactly the state the live engine holds, definitions included.
void ExpectRecoversToLiveState(const std::string& dir, Engine* live) {
  RecoveryManager manager(dir + "/snapshot.tchdb", dir + "/journal.tql");
  RecoveryStats stats;
  auto recovered = manager.Recover(&stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(SaveDatabaseToString(**recovered).value(),
            SaveDatabaseToString(live->writer_db()).value());
  EXPECT_EQ(Interpreter(recovered->get())
                .Execute("select x.v from x in emp")
                .value(),
            "42");
}

TEST(RecoveryTest, JournaledTriggerDefinitionReplaysAndFires) {
  std::string dir = FreshDir("journaled_trigger");
  Engine engine;
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(dir + "/journal.tql").ok());
  engine.set_commit_sink(&sink);
  Session session = engine.OpenSession();
  for (const char* stmt : {kEmpSchema, kBoost, "create emp (v: 1)"}) {
    ASSERT_TRUE(session.Execute(stmt).ok()) << stmt;
  }
  sink.Close();
  ExpectRecoversToLiveState(dir, &engine);
}

TEST(RecoveryTest, CheckpointedTriggerFiresOnJournaledCreate) {
  std::string dir = FreshDir("checkpointed_trigger");
  Engine engine;
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(dir + "/journal.tql").ok());
  engine.set_commit_sink(&sink);
  Session session = engine.OpenSession();
  ASSERT_TRUE(session.Execute(kEmpSchema).ok());
  ASSERT_TRUE(session.Execute(kBoost).ok());
  Status checkpointed = engine.WithExclusive([&](Database& db) {
    return sink.WithQuiesced([&](Journal& journal) {
      return RecoveryManager::Checkpoint(db, &journal,
                                         dir + "/snapshot.tchdb");
    });
  });
  ASSERT_TRUE(checkpointed.ok()) << checkpointed;
  ASSERT_TRUE(session.Execute("create emp (v: 1)").ok());
  sink.Close();
  ExpectRecoversToLiveState(dir, &engine);
}

// --- the statement text the journal receives ------------------------------

// The engine's writer over a fresh directory's journal.
struct JournaledEngine {
  explicit JournaledEngine(const std::string& dir) : dir(dir) {
    EXPECT_TRUE(sink.Open(dir + "/journal.tql").ok());
    engine.set_commit_sink(&sink);
  }
  ~JournaledEngine() { sink.Close(); }

  // Recover() over the directory reproduces the live state.
  void ExpectRecoversToLiveState() {
    RecoveryManager manager(dir + "/snapshot.tchdb", dir + "/journal.tql");
    auto recovered = manager.Recover(nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(DatabaseStateHash(**recovered).value(),
              DatabaseStateHash(engine.OpenSnapshot().db()).value());
  }

  std::string dir;
  Engine engine;
  GroupCommitJournal sink;
  Session session = engine.OpenSession();
};

// A comment before the verb is whitespace to the lexer, so these are
// writes like any other: journaled, and recovered.
TEST(RecoveryTest, CommentPrefixedWritesAreJournaled) {
  JournaledEngine w(FreshDir("comment_prefixed"));
  for (const char* stmt : {
           "-- schema\ndefine class item attributes salary: "
           "temporal(integer) end",
           "-- hire\ncreate item (salary: 1)",
           "-- raise\nupdate i1 set salary = 2",
           "  -- time passes\n  tick 3",
           "-- a read on the read path\nselect x.salary from x in item",
       }) {
    Result<std::string> r = w.session.Execute(stmt);
    ASSERT_TRUE(r.ok()) << stmt << ": " << r.status();
  }
  EXPECT_EQ(w.sink.durable(), 4u);  // the select is not journaled
  w.sink.Close();
  Result<JournalScan> scan = ScanJournal(w.dir + "/journal.tql");
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->statements.size(), 4u);
  EXPECT_EQ(scan->statements[2], "update i1 set salary = 2");
  w.ExpectRecoversToLiveState();
}

// Newlines are whitespace too: a multi-line write is journaled as its
// one-line canonical text and leaves the journal healthy for the next.
TEST(RecoveryTest, MultiLineWriteIsJournaledAsOneLine) {
  JournaledEngine w(FreshDir("multi_line"));
  ASSERT_TRUE(w.session
                  .Execute("define class item attributes salary: "
                           "temporal(integer), note: string end")
                  .ok());
  ASSERT_TRUE(w.session.Execute("create item (salary: 1, note: 'a')").ok());
  for (const char* stmt : {
           "update i1\n  set salary = 2",
           "update i1 set note = 'two\nlines'  -- a raw newline in a literal",
           "update i1 set salary = 3",
           "create item (salary: 4, note: 'b')",
       }) {
    Result<std::string> r = w.session.Execute(stmt);
    ASSERT_TRUE(r.ok()) << stmt << ": " << r.status();
  }
  w.sink.Close();
  Result<JournalScan> scan = ScanJournal(w.dir + "/journal.tql");
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->statements.size(), 6u);
  EXPECT_EQ(scan->statements[2], "update i1 set salary = 2");
  EXPECT_EQ(scan->statements[3], "update i1 set note = 'two\\nlines'");
  w.ExpectRecoversToLiveState();
}

}  // namespace
}  // namespace tchimera

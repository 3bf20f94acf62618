// Tests for persistence: snapshot round-trips, journal replay (the
// checkpoint+log scheme), and corruption detection.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "core/db/consistency.h"
#include "core/db/equality.h"
#include "storage/deserializer.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/serializer.h"
#include "triggers/trigger.h"
#include "workload/generator.h"

namespace tchimera {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("tchimera_test_") + name))
      .string();
}

// Recomputes the footer of snapshot text whose body was edited by hand,
// keeping the footer's CLASS+OBJECT record count.
std::string Reseal(const std::string& text) {
  size_t chk = text.find("CHECKSUM ");
  if (chk == std::string::npos) return text;
  std::string body = text.substr(0, chk);
  size_t count_end = text.find(' ', chk + 9);
  std::string records = text.substr(chk + 9, count_end - chk - 9);
  return body + "CHECKSUM " + records + " " + Crc32Hex(Crc32(body)) +
         "\nEOF\n";
}

void Populate(Database* db, uint64_t seed = 7) {
  PopulationConfig config;
  config.seed = seed;
  config.persons = 15;
  config.projects = 4;
  config.timesteps = 12;
  config.updates_per_step = 6;
  config.migration_rate = 0.3;
  Result<Population> pop = PopulateDatabase(db, config);
  ASSERT_TRUE(pop.ok()) << pop.status();
}

TEST(SerializerTest, SnapshotRoundTripsExactly) {
  Database db;
  Populate(&db);
  Result<std::string> text = SaveDatabaseToString(db);
  ASSERT_TRUE(text.ok()) << text.status();

  Result<std::unique_ptr<Database>> loaded =
      LoadDatabaseFromString(*text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // Fixed point: serializing the loaded database reproduces the bytes.
  Result<std::string> again = SaveDatabaseToString(**loaded);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *text);

  // Semantics preserved: clock, population, schema, per-object state.
  EXPECT_EQ((*loaded)->now(), db.now());
  EXPECT_EQ((*loaded)->object_count(), db.object_count());
  EXPECT_EQ((*loaded)->class_count(), db.class_count());
  EXPECT_EQ((*loaded)->next_oid(), db.next_oid());
  for (Oid oid : db.AllOids()) {
    const Object* original = db.GetObject(oid);
    const Object* restored = (*loaded)->GetObject(oid);
    ASSERT_NE(restored, nullptr) << oid.ToString();
    EXPECT_TRUE(EqualByValue(*original, *restored)) << oid.ToString();
    EXPECT_EQ(original->lifespan(), restored->lifespan());
    EXPECT_EQ(original->class_history(), restored->class_history());
  }
  // The restored database passes the full consistency check.
  Status s = CheckDatabaseConsistency(**loaded);
  EXPECT_TRUE(s.ok()) << s;
}

TEST(SerializerTest, FileRoundTrip) {
  Database db;
  Populate(&db, 11);
  std::string path = TempPath("snapshot.tchdb");
  ASSERT_TRUE(SaveDatabaseToFile(db, path).ok());
  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->object_count(), db.object_count());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadDatabaseFromFile(path).ok());
}

TEST(SerializerTest, OperationsContinueAfterRestore) {
  Database db;
  Populate(&db, 13);
  Result<std::string> text = SaveDatabaseToString(db);
  ASSERT_TRUE(text.ok());
  auto loaded = LoadDatabaseFromString(*text).value();
  // The restored database accepts new work: ticks, creates, updates,
  // migrations — and stays consistent.
  loaded->Tick();
  Result<Oid> fresh = loaded->CreateObject("employee");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_GT(fresh->id, 0u);
  ASSERT_TRUE(loaded
                  ->UpdateAttribute(*fresh, "salary",
                                    Value::Integer(123))
                  .ok());
  Status s = CheckDatabaseConsistency(*loaded);
  EXPECT_TRUE(s.ok()) << s;
}

TEST(DeserializerTest, DetectsCorruption) {
  Database db;
  Populate(&db, 17);
  std::string text = SaveDatabaseToString(db).value();
  // Bad header.
  EXPECT_FALSE(LoadDatabaseFromString("GARBAGE\n").ok());
  // Truncated snapshot (cut in half).
  std::string truncated = text.substr(0, text.size() / 2);
  Result<std::unique_ptr<Database>> r = LoadDatabaseFromString(truncated);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  // A corrupted record tag.
  std::string mangled = text;
  size_t pos = mangled.find("\nOBJECT ");
  ASSERT_NE(pos, std::string::npos);
  mangled.replace(pos, 8, "\nOBJEKT ");
  EXPECT_FALSE(LoadDatabaseFromString(mangled).ok());
  // Malformed extent postings (out of oid order, adjacent intervals, no
  // interval, a bad oid, an unclosed interval).
  for (const char* bad : {"EXT 2:[0,now] 1:[0,now]", "EXT 1:[0,4][5,now]",
                          "EXT 1:", "EXT x:[0,now]", "EXT 1:[0,now"}) {
    std::string edited = text;
    const size_t at = edited.find("\nEXT ") + 1;
    edited.replace(at, edited.find('\n', at) - at, bad);
    Result<std::unique_ptr<Database>> rejected =
        LoadDatabaseFromString(Reseal(edited));
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption) << bad;
  }
}

// Only version 5 is read: the same body under any other header, resealed
// so the checksum holds, is Corruption before a record is parsed.
TEST(DeserializerTest, EarlierVersionsAreCorruption) {
  Database db;
  Populate(&db, 29);
  const std::string text = SaveDatabaseToString(db).value();
  ASSERT_TRUE(LoadDatabaseFromString(text).ok());
  for (const char* header : {"TCHIMERA-SNAPSHOT 4", "TCHIMERA-SNAPSHOT 1"}) {
    std::string relabelled = text;
    relabelled.replace(0, relabelled.find('\n'), header);
    relabelled = Reseal(relabelled);
    Result<SnapshotInfo> info = ProbeSnapshot(relabelled);
    ASSERT_TRUE(info.ok()) << info.status();
    EXPECT_EQ(info->integrity.code(), StatusCode::kCorruption) << header;
    Result<std::unique_ptr<Database>> loaded =
        LoadDatabaseFromString(relabelled);
    ASSERT_FALSE(loaded.ok()) << header;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << header;
  }
}

TEST(JournalTest, ReplayReproducesState) {
  std::string path = TempPath("journal.tql");
  std::remove(path.c_str());
  const char* statements[] = {
      "define class person attributes name: temporal(string), "
      "birthyear: integer end",
      "create person (name: 'Ann', birthyear: 1970)",
      "create person (name: 'Bob', birthyear: 1980)",
      "advance to 30",
      "update i1 set name = 'Anna'",
      "tick 5",
      "delete i2",
  };
  {
    JournaledDatabase jdb(path);
    ASSERT_TRUE(jdb.status().ok());
    for (const char* stmt : statements) {
      Result<std::string> r = jdb.Execute(stmt);
      ASSERT_TRUE(r.ok()) << stmt << ": " << r.status();
    }
    // Queries are not journaled.
    ASSERT_TRUE(jdb.Execute("select x from x in person").ok());
  }
  // Recovery: replay into a fresh database.
  Database recovered;
  Interpreter interp(&recovered);
  Result<size_t> applied = Journal::Replay(path, &interp);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, 7u);  // the SELECT was not journaled
  EXPECT_EQ(recovered.now(), 35);
  EXPECT_EQ(recovered.object_count(), 2u);
  EXPECT_EQ(recovered.HStateOf(Oid{1}, 30)
                .value()
                .FieldValue("name")
                ->AsString(),
            "Anna");
  EXPECT_FALSE(recovered.GetObject(Oid{2})->alive());
  EXPECT_TRUE(CheckDatabaseConsistency(recovered).ok());
  std::remove(path.c_str());
}

TEST(JournalTest, CheckpointPlusLogRecovery) {
  std::string snap_path = TempPath("ckpt.tchdb");
  std::string journal_path = TempPath("tail.tql");
  std::remove(snap_path.c_str());
  std::remove(journal_path.c_str());
  std::remove(Journal::RotatedPath(journal_path, 0).c_str());
  // Phase 1: base state, then a safe checkpoint (rotate + snapshot +
  // delete, see storage/recovery.h).
  {
    JournaledDatabase jdb(journal_path);
    ASSERT_TRUE(jdb.status().ok()) << jdb.status();
    for (const char* stmt :
         {"define class task attributes description: string, "
          "effort: temporal(integer) end",
          "create task (description: 'build', effort: 10)"}) {
      Result<std::string> r = jdb.Execute(stmt);
      ASSERT_TRUE(r.ok()) << stmt << ": " << r.status();
    }
    Status ckpt =
        RecoveryManager::Checkpoint(jdb.db(), &jdb.journal(), snap_path);
    ASSERT_TRUE(ckpt.ok()) << ckpt;
    // The rotated pre-checkpoint journal was deleted once the snapshot
    // became durable.
    EXPECT_FALSE(
        std::filesystem::exists(Journal::RotatedPath(journal_path, 0)));
    // Phase 2: more work lands in the fresh journal tail only.
    ASSERT_TRUE(jdb.Execute("tick 10").ok());
    ASSERT_TRUE(jdb.Execute("update i1 set effort = 20").ok());
  }
  // Recovery: snapshot, then the journal tail on top.
  RecoveryManager manager(snap_path, journal_path);
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> recovered = manager.Recover(&stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_epoch, 1u);
  EXPECT_EQ(stats.statements_applied, 2u);
  EXPECT_EQ((*recovered)->now(), 10);
  EXPECT_EQ((*recovered)
                ->HStateOf(Oid{1}, 10)
                .value()
                .FieldValue("effort")
                ->AsInteger(),
            20);
  EXPECT_EQ((*recovered)
                ->HStateOf(Oid{1}, 5)
                .value()
                .FieldValue("effort")
                ->AsInteger(),
            10);
  std::remove(snap_path.c_str());
  std::remove(journal_path.c_str());
}

TEST(JournalTest, ReplayPrefixBoundaries) {
  std::string path = TempPath("prefix.tql");
  std::remove(path.c_str());
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path).ok());
    ASSERT_TRUE(journal.Append("tick 1").ok());
    ASSERT_TRUE(journal.Append("tick 2").ok());
    ASSERT_TRUE(journal.Append("tick 3").ok());
  }
  auto replay_prefix = [&](size_t max) {
    Database db;
    Interpreter interp(&db);
    Result<size_t> applied = Journal::ReplayPrefix(path, &interp, max);
    EXPECT_TRUE(applied.ok()) << applied.status();
    return std::make_pair(applied.ok() ? *applied : 0, db.now());
  };
  EXPECT_EQ(replay_prefix(0), std::make_pair(size_t{0}, TimePoint{0}));
  EXPECT_EQ(replay_prefix(2), std::make_pair(size_t{2}, TimePoint{3}));
  // Exactly the journal length, and past the end: both apply everything.
  EXPECT_EQ(replay_prefix(3), std::make_pair(size_t{3}, TimePoint{6}));
  EXPECT_EQ(replay_prefix(100), std::make_pair(size_t{3}, TimePoint{6}));
  std::remove(path.c_str());
}

TEST(JournalTest, OperationsOnClosedJournalFail) {
  Journal never_opened;
  EXPECT_EQ(never_opened.Append("tick").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(never_opened.Sync().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(never_opened.Rotate().status().code(),
            StatusCode::kFailedPrecondition);

  std::string path = TempPath("closed.tql");
  std::remove(path.c_str());
  Journal journal;
  ASSERT_TRUE(journal.Open(path).ok());
  ASSERT_TRUE(journal.Append("tick").ok());
  journal.Close();
  EXPECT_EQ(journal.Append("tick").code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// Only framed v2 journals are read: a file of bare statements (the old
// unframed format) is Corruption for every reader, and Open refuses it
// without touching a byte.
TEST(JournalTest, UnframedFileIsCorruptionAndLeftUntouched) {
  const std::string dir = TempPath("unframed");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/journal.tql";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "tick 1\n";
  }
  auto read = [&path] {
    return FileSystem::Default()->ReadFileToString(path).value();
  };

  Result<JournalScan> scan = ScanJournal(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);
  Result<TailScan> tail = ScanJournalTail(path, 0, 0, 10);
  ASSERT_TRUE(tail.ok()) << tail.status();
  EXPECT_EQ(tail->error.code(), StatusCode::kCorruption);
  EXPECT_TRUE(tail->records.empty());

  Database db;
  Interpreter interp(&db);
  Result<size_t> replayed = Journal::Replay(path, &interp);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(db.now(), 0);

  RecoveryManager manager(dir + "/snapshot.tchdb", path);
  Result<std::unique_ptr<Database>> recovered = manager.Recover(nullptr);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);

  Journal journal;
  Status opened = journal.Open(path);
  EXPECT_EQ(opened.code(), StatusCode::kCorruption) << opened;
  EXPECT_FALSE(journal.is_open());
  EXPECT_EQ(read(), "tick 1\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".corrupt"));
  std::filesystem::remove_all(dir);
}

// A header torn at creation (a proper prefix of the header line) is
// salvaged away, and Open starts the file over with a complete header, so
// the records appended next are readable.
TEST(JournalTest, OpenAfterATornHeaderWritesAFreshHeader) {
  const std::string path = TempPath("torn_header.tql");
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << "TCHIMERA-JOUR";
  }
  JournalOptions options;
  options.epoch = 3;
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path, options).ok());
    EXPECT_EQ(journal.epoch(), 3u);
    ASSERT_TRUE(journal.Append("tick 1").ok());
  }
  Result<JournalScan> scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->tail_error.ok()) << scan->tail_error;
  EXPECT_EQ(scan->epoch, 3u);
  EXPECT_EQ(scan->statements, std::vector<std::string>{"tick 1"});
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST(JournalTest, MutatingStatementMatchesWholeTokenOnly) {
  EXPECT_TRUE(IsMutatingStatement("delete i1"));
  EXPECT_TRUE(IsMutatingStatement("  Update i1 set a = 1"));
  EXPECT_TRUE(IsMutatingStatement("tick"));
  // Index DDL must journal / replicate / group-commit like any other
  // mutation — a non-mutating classification would silently drop it
  // from the durability pipeline.
  EXPECT_TRUE(IsMutatingStatement("create index iv on item (v)"));
  EXPECT_TRUE(IsMutatingStatement("  CREATE index iv on item lifespan"));
  EXPECT_TRUE(IsMutatingStatement("drop index iv"));
  // Trigger and constraint definitions are schema changes: journaled,
  // replicated and group-committed like class DDL.
  EXPECT_TRUE(IsMutatingStatement("trigger t on create do tick"));
  EXPECT_TRUE(
      IsMutatingStatement("  Constraint c on emp always x.v > 0"));
  // Prefix look-alikes are queries, not mutations.
  EXPECT_FALSE(IsMutatingStatement("deletion_report from x in c"));
  EXPECT_FALSE(IsMutatingStatement("ticket from x in c"));
  EXPECT_FALSE(IsMutatingStatement("updates from x in c"));
  EXPECT_FALSE(IsMutatingStatement("created from x in c"));
  EXPECT_FALSE(IsMutatingStatement(""));
  EXPECT_FALSE(IsMutatingStatement("   "));
  EXPECT_EQ(FirstTokenLower("  TRIGGER t on create do tick"), "trigger");
}

TEST(JournalTest, ReplayFailsFastOnBadStatement) {
  std::string path = TempPath("bad.tql");
  std::remove(path.c_str());
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path).ok());
    for (const char* statement : {"tick 1", "not a statement", "tick 1"}) {
      ASSERT_TRUE(journal.Append(statement).ok()) << statement;
    }
  }
  Database db;
  Interpreter interp(&db);
  Result<size_t> r = Journal::Replay(path, &interp);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(db.now(), 1);  // the first statement applied before the stop
  std::remove(path.c_str());
}

// --- v3 snapshots: DEFINE records for trigger/constraint definitions ---

TEST(SerializerTest, V3SnapshotCarriesDefinitions) {
  Database db;
  Populate(&db, 19);
  const std::vector<std::string> defs = {
      "trigger t on create of employee do update $self set salary = 1",
      "constraint c on employee always (x.salary > 0)"};
  ActiveDatabase active(&db);
  // Defined constraint-first: DEFINE records still list triggers first.
  ASSERT_TRUE(active.Execute(defs[1]).ok());
  ASSERT_TRUE(active.Execute(defs[0]).ok());
  std::string text = SaveDatabaseToString(db, 4).value();
  EXPECT_EQ(text.rfind("TCHIMERA-SNAPSHOT 5", 0), 0u);
  EXPECT_NE(text.find("DEFINE " + defs[0] + "\nDEFINE " + defs[1] + "\n"),
            std::string::npos);

  Result<SnapshotInfo> info = ProbeSnapshot(text);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, 5);
  EXPECT_EQ(info->epoch, 4u);
  EXPECT_TRUE(info->integrity.ok()) << info->integrity;

  // The load installs the definitions, in order.
  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE((*loaded)->definitions(), nullptr);
  EXPECT_EQ((*loaded)->definitions()->Statements(), defs);
  // Fixed point: re-serializing reproduces the bytes, so DEFINE records
  // round-trip exactly.
  EXPECT_EQ(SaveDatabaseToString(**loaded, 4).value(), text);
  EXPECT_EQ(DatabaseStateHash(**loaded).value(),
            DatabaseStateHash(db).value());
}

TEST(SerializerTest, DefineRecordsOfEarlierSnapshotsFireAndCheck) {
  // DEFINE records spliced in by hand where every v3+ writer puts them
  // (after the objects, before INDEX and NEXT-OID), exactly as snapshots
  // that carried definitions beside the database were written.
  Database db;
  ASSERT_TRUE(Interpreter(&db)
                  .Execute("define class emp attributes v: temporal(integer) "
                           "end")
                  .ok());
  std::string text = SaveDatabaseToString(db).value();
  const size_t next_oid = text.find("NEXT-OID ");
  ASSERT_NE(next_oid, std::string::npos);
  text.insert(next_oid,
              "DEFINE trigger boost on create of emp do update $self set "
              "v = 42\nDEFINE constraint positive on emp always (x.v > 0)\n");
  text = Reseal(text);

  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SaveDatabaseToString(**loaded).value(), text);
  ActiveDatabase active(loaded->get());
  Result<std::string> oid = active.Execute("create emp (v: 1)");
  ASSERT_TRUE(oid.ok()) << oid.status();
  EXPECT_EQ(active.Execute("select x.v from x in emp").value(), "42");
  EXPECT_EQ(active.Execute("check").value(),
            "consistent (and 1 temporal constraints hold)");
  ASSERT_TRUE(active.Execute("tick 1").ok());
  ASSERT_TRUE(active.Execute("update " + *oid + " set v = -5").ok());
  Result<std::string> violated = active.Execute("check");
  ASSERT_FALSE(violated.ok());
  EXPECT_EQ(violated.status().code(), StatusCode::kConsistencyViolation);

  // A DEFINE record that is not a definition is corruption, not data.
  std::string bad = text;
  bad.replace(bad.find("DEFINE trigger"), 14, "DEFINE tick 1 ");
  Result<std::unique_ptr<Database>> rejected =
      LoadDatabaseFromString(Reseal(bad));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
}

// --- v4 snapshots: INDEX records for temporal secondary indexes ---

TEST(SerializerTest, V4SnapshotRestoresIndexDefinitionsAndRebuilds) {
  Database db;
  Populate(&db, 13);
  ASSERT_TRUE(
      db.CreateIndex({"emp_salary", IndexKind::kValue, "employee", "salary"})
          .ok());
  ASSERT_TRUE(
      db.CreateIndex({"emp_life", IndexKind::kLifespan, "employee", ""})
          .ok());

  std::string text = SaveDatabaseToString(db).value();
  // Only the definitions are serialized — data is rebuilt on restore.
  EXPECT_NE(text.find("INDEX emp_life lifespan employee -\n"),
            std::string::npos);
  EXPECT_NE(text.find("INDEX emp_salary value employee salary\n"),
            std::string::npos);
  EXPECT_EQ(text.find("postings"), std::string::npos);

  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE((*loaded)->GetIndexDef("emp_salary"), nullptr);
  ASSERT_NE((*loaded)->GetIndexDef("emp_life"), nullptr);
  // The rebuilt index state is bit-identical to the source database's.
  EXPECT_EQ((*loaded)->DebugDumpIndexes(), db.DebugDumpIndexes());
  EXPECT_GT((*loaded)->IndexEntryCount("emp_salary"), 0u);
  // Fixed point: INDEX records round-trip byte-for-byte.
  EXPECT_EQ(SaveDatabaseToString(**loaded).value(), text);

  // An INDEX record with an unknown kind is corruption, not data.
  std::string bad = text;
  size_t pos = bad.find("INDEX emp_salary value");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos + 17, 5, "vecto");
  size_t chk = bad.find("CHECKSUM ");
  ASSERT_NE(chk, std::string::npos);
  std::string body = bad.substr(0, chk);
  size_t count_end = bad.find(' ', chk + 9);
  std::string records = bad.substr(chk + 9, count_end - chk - 9);
  bad = body + "CHECKSUM " + records + " " + Crc32Hex(Crc32(body)) +
        "\nEOF\n";
  Result<std::unique_ptr<Database>> rejected =
      LoadDatabaseFromString(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
}

TEST(SerializerTest, NewlineInDefinitionIsRejected) {
  Database db;
  ASSERT_TRUE(ActiveDatabase(&db)
                  .DefineTrigger("trigger a on create of b do update $self "
                                 "set\nv = 1")
                  .ok());
  Result<std::string> r = SaveDatabaseToString(db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tchimera

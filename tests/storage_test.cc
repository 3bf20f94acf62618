// Tests for persistence: snapshot round-trips, journal replay (the
// checkpoint+log scheme), and corruption detection.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "core/db/consistency.h"
#include "core/db/equality.h"
#include "snapshot_test_util.h"
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

TEST(SerializerTest, V4SetHistoryExtentsLoadAsPostings) {
  // A v4 writer stored each extent as a set-valued temporal function,
  // including stretches with no member ("{}"); v5 stores interval
  // postings. Extent parsing only: the objects' class histories are left
  // out.
  const std::string v4 = Reseal(
      "TCHIMERA-SNAPSHOT 4\n"
      "EPOCH 0\n"
      "NOW 12\n"
      "CLASS person\n"
      "SUPERS -\n"
      "LIFESPAN [0,now]\n"
      "EXT {<[2,4],{i1}>,<[5,7],{}>,<[8,9],{i1,i2}>,<[10,now],{i2}>}\n"
      "PEXT {<[2,3],{i1}>,<[4,4],{i1}>,<[8,now],{i2}>}\n"
      "END\n"
      "OBJECT 1 [2,9]\n"
      "END\n"
      "OBJECT 2 [8,now]\n"
      "END\n"
      "NEXT-OID 3\n"
      "CHECKSUM 3 00000000\nEOF\n");
  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromString(v4);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Database& db = **loaded;
  EXPECT_EQ(db.Pi("person", 3), std::vector<Oid>{Oid{1}});
  EXPECT_TRUE(db.Pi("person", 6).empty());
  EXPECT_EQ(db.Pi("person", 9), (std::vector<Oid>{Oid{1}, Oid{2}}));
  EXPECT_EQ(db.Pi("person", 11), std::vector<Oid>{Oid{2}});
  EXPECT_EQ(db.MLifespan(Oid{1}, "person").value().ToString(),
            "{[2,4],[8,9]}");
  const ClassDef* person = db.GetClass("person");
  EXPECT_EQ(person->member_postings().ToString(), "1:[2,4][8,9] 2:[8,now]");
  EXPECT_EQ(person->instance_postings().ToString(), "1:[2,4] 2:[8,now]");
  // Written back as v5 postings; the empty stretch leaves the function.
  const std::string v5 = SaveDatabaseToString(db).value();
  EXPECT_EQ(v5.rfind("TCHIMERA-SNAPSHOT 5\n", 0), 0u);
  EXPECT_NE(v5.find("\nEXT 1:[2,4][8,9] 2:[8,now]\n"), std::string::npos);
  EXPECT_EQ(person->ext().ToString(),
            "{<[2,4],{i1}>,<[8,9],{i1,i2}>,<[10,now],{i2}>}");

  // Malformed v5 postings are corruption.
  for (const char* bad : {"EXT 2:[0,now] 1:[0,now]", "EXT 1:[0,4][5,now]",
                          "EXT 1:", "EXT x:[0,now]", "EXT 1:[0,now"}) {
    std::string text = v5;
    const size_t at = text.find("\nEXT ") + 1;
    text.replace(at, text.find('\n', at) - at, bad);
    Result<std::unique_ptr<Database>> r =
        LoadDatabaseFromString(Reseal(text));
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << bad;
  }
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

TEST(JournalTest, ReplaySkipsBlankLinesInV1Journals) {
  std::string path = TempPath("blank.tql");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "tick 1\n\n\ntick 2\n   \n";
  }
  Database db;
  Interpreter interp(&db);
  Result<size_t> applied = Journal::Replay(path, &interp);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, 2u);
  EXPECT_EQ(db.now(), 3);
  std::remove(path.c_str());
}

TEST(JournalTest, OperationsOnClosedJournalFail) {
  Journal never_opened;
  EXPECT_EQ(never_opened.Append("tick").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(never_opened.Truncate().code(),
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
  EXPECT_EQ(journal.Truncate().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
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
  {
    std::ofstream out(path, std::ios::trunc);
    out << "tick 1\nnot a statement\ntick 1\n";
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

TEST(SerializerTest, V2SnapshotStillLoads) {
  Database db;
  Populate(&db, 23);
  const std::string expected = SaveDatabaseToString(db, 0).value();
  ASSERT_TRUE(ActiveDatabase(&db)
                  .Execute("constraint c on employee always x.salary > 0")
                  .ok());
  // A v3 snapshot: extents as set histories, DEFINE records.
  std::string v3 =
      WithSetHistoryExtents(SaveDatabaseToString(db, 6).value(), db);

  // Shape the v3 text into its v2 equivalent: version 2 header, no DEFINE
  // lines, checksum recomputed over the altered body (DEFINE lines never
  // counted toward the footer's record count).
  std::string v2 = v3;
  size_t header_end = v2.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  v2.replace(0, header_end, "TCHIMERA-SNAPSHOT 2");
  size_t define_pos;
  while ((define_pos = v2.find("\nDEFINE ")) != std::string::npos) {
    v2.erase(define_pos + 1, v2.find('\n', define_pos + 1) - define_pos);
  }
  v2 = Reseal(v2);

  Result<SnapshotInfo> info = ProbeSnapshot(v2);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, 2);
  EXPECT_EQ(info->epoch, 6u);
  EXPECT_TRUE(info->integrity.ok()) << info->integrity;

  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromString(v2);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->definitions(), nullptr);
  EXPECT_EQ(SaveDatabaseToString(**loaded, 0).value(), expected);

  // A DEFINE record in a v2 snapshot is corruption, not data: the tag was
  // introduced with v3.
  std::string bad = v3;
  bad.replace(0, bad.find('\n'), "TCHIMERA-SNAPSHOT 2");
  EXPECT_FALSE(LoadDatabaseFromString(Reseal(bad)).ok());
}

}  // namespace
}  // namespace tchimera

// Transaction-time travel via journal prefix replay (the "different
// notions of time" extension of Section 1.1, built on the write-ahead
// journal): reconstructing the database as of transaction n, and the
// valid-time/transaction-time distinction it exposes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "query/session.h"
#include "storage/group_commit.h"
#include "storage/journal.h"
#include "storage/serializer.h"

namespace tchimera {
namespace {

class TxTimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             "tchimera_txtime_test.tql")
                .string();
    std::remove(path_.c_str());
    Journal journal;
    ASSERT_TRUE(journal.Open(path_).ok());
    for (const char* statement : {
             // tx 1-2: schema + hire at valid time 0.
             "define class worker attributes salary: temporal(integer) end",
             "create worker (salary: 100)",
             // tx 3-4: time passes, a raise at valid time 10.
             "advance to 10",
             "update i1 set salary = 200",
             // tx 5: a *retroactive* correction recorded later: the raise
             // was really 150, effective from valid time 10.
             "update i1 set salary = 150 during [10,now]",
         }) {
      ASSERT_TRUE(journal.Append(statement).ok()) << statement;
    }
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<Database> AsOfTransaction(size_t n) {
    auto db = std::make_unique<Database>();
    ActiveDatabase active(db.get());
    Result<size_t> applied = Journal::ReplayPrefix(path_, &active, n);
    EXPECT_TRUE(applied.ok()) << applied.status();
    return db;
  }

  int64_t SalaryAt(const Database& db, TimePoint t) {
    Result<Value> h = db.HStateOf(Oid{1}, t);
    EXPECT_TRUE(h.ok()) << h.status();
    return h->FieldValue("salary")->AsInteger();
  }

  std::string path_;
};

TEST_F(TxTimeTest, PrefixReplayReconstructsAsOfTransaction) {
  // As of tx 2: only the hire exists; clock at 0.
  auto tx2 = AsOfTransaction(2);
  EXPECT_EQ(tx2->now(), 0);
  EXPECT_EQ(SalaryAt(*tx2, 0), 100);
  // As of tx 4: the raise to 200 is believed.
  auto tx4 = AsOfTransaction(4);
  EXPECT_EQ(tx4->now(), 10);
  EXPECT_EQ(SalaryAt(*tx4, 10), 200);
  // As of tx 5: history has been corrected retroactively.
  auto tx5 = AsOfTransaction(5);
  EXPECT_EQ(SalaryAt(*tx5, 10), 150);
}

TEST_F(TxTimeTest, BitemporalDistinction) {
  // The bitemporal question: "what did we *believe at transaction 4* the
  // salary was at valid time 10?" vs "what do we believe *now*?". The
  // valid-time instant is the same; the answers differ because belief
  // changed at tx 5.
  auto believed_then = AsOfTransaction(4);
  auto believed_now = AsOfTransaction(999);
  EXPECT_EQ(SalaryAt(*believed_then, 10), 200);
  EXPECT_EQ(SalaryAt(*believed_now, 10), 150);
  // Valid-time history *before* the corrected interval is stable across
  // transaction time.
  EXPECT_EQ(SalaryAt(*believed_then, 5), 100);
  EXPECT_EQ(SalaryAt(*believed_now, 5), 100);
}

TEST_F(TxTimeTest, ReplayCountIsExact) {
  Database db;
  ActiveDatabase active(&db);
  EXPECT_EQ(Journal::ReplayPrefix(path_, &active, 0).value(), 0u);
  Database db2;
  ActiveDatabase active2(&db2);
  EXPECT_EQ(Journal::ReplayPrefix(path_, &active2, 3).value(), 3u);
  Database db3;
  ActiveDatabase active3(&db3);
  EXPECT_EQ(Journal::ReplayPrefix(path_, &active3, 999).value(), 5u);
}

// A journal the engine wrote carries trigger and constraint definitions;
// prefix replay runs them and fires the triggers, so every prefix
// reproduces the live state as of that transaction.
TEST(TxTimeEngineJournalTest, PrefixReplayRunsDefinitionsAndFiresTriggers) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tchimera_txtime_engine.tql")
          .string();
  std::remove(path.c_str());
  const std::vector<std::string> statements = {
      "define class emp attributes salary: temporal(integer) end",
      "trigger t on create of emp do update $self set salary = 7",
      "constraint pos on emp always x.salary > 0",
      "create emp (salary: 1)",
      "tick 2",
      "update i1 set salary = 9",
      "check",  // not journaled
      "create emp (salary: 3)",
  };
  std::vector<uint32_t> live_hashes;  // after each journaled statement
  {
    Engine engine;
    GroupCommitJournal sink;
    ASSERT_TRUE(sink.Open(path).ok());
    engine.set_commit_sink(&sink);
    Session session = engine.OpenSession();
    auto live_hash = [&engine] {
      return DatabaseStateHash(engine.OpenSnapshot().db()).value();
    };
    live_hashes.push_back(live_hash());
    for (const std::string& statement : statements) {
      Result<std::string> r = session.Execute(statement);
      ASSERT_TRUE(r.ok()) << statement << ": " << r.status();
      if (statement != "check") live_hashes.push_back(live_hash());
    }
    // The trigger fired live: the second create's salary became 7.
    ReadSnapshot snap = engine.OpenSnapshot();
    EXPECT_EQ(snap.db()
                  .HStateOf(Oid{2}, snap.db().now())
                  ->FieldValue("salary")
                  ->AsInteger(),
              7);
    sink.Close();
  }
  for (size_t n = 0; n < live_hashes.size(); ++n) {
    SCOPED_TRACE("prefix " + std::to_string(n));
    Database db;
    ActiveDatabase active(&db);
    Result<size_t> applied = Journal::ReplayPrefix(path, &active, n);
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(*applied, n);
    EXPECT_EQ(DatabaseStateHash(db).value(), live_hashes[n]);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tchimera

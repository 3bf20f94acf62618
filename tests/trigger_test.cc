// Tests for temporal triggers (the Section 7 future-work ECA rules):
// parsing, event matching with subclass closure, $self substitution,
// cascades, and the termination guard the paper flags as an open issue.
#include <gtest/gtest.h>

#include "triggers/trigger.h"
#include "workload/project_schema.h"

namespace tchimera {
namespace {

class TriggerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    active_ = std::make_unique<ActiveDatabase>(&db_);
    ASSERT_TRUE(InstallProjectSchema(&db_).ok());
  }

  Result<std::string> Run(const std::string& stmt) {
    return active_->Execute(stmt);
  }

  Database db_;
  std::unique_ptr<ActiveDatabase> active_;
};

TEST_F(TriggerTest, Parsing) {
  EXPECT_TRUE(Trigger::Parse("trigger t1 on create of employee do "
                             "update $self set salary = 1")
                  .ok());
  EXPECT_TRUE(Trigger::Parse("trigger t2 on update of employee.salary do "
                             "check")
                  .ok());
  EXPECT_TRUE(Trigger::Parse("trigger t3 on delete do check").ok());
  EXPECT_FALSE(Trigger::Parse("nonsense").ok());
  EXPECT_FALSE(Trigger::Parse("trigger t on explode do check").ok());
  EXPECT_FALSE(
      Trigger::Parse("trigger t on create of c.attr do check").ok());
  EXPECT_FALSE(Trigger::Parse("trigger t on create do").ok());
  Trigger t = Trigger::Parse("trigger audit on update of employee.salary "
                             "do check")
                  .value();
  EXPECT_EQ(t.ToString(),
            "trigger audit on update of employee.salary do check");
}

TEST_F(TriggerTest, CreateTriggerInitializesAttribute) {
  // ECA rule: every new employee gets a starter salary.
  ASSERT_TRUE(active_
                  ->Define("trigger starter on create of employee "
                           "do update $self set salary = 30000")
                  .ok());
  std::string oid = Run("create employee (office: 'A1')").value();
  EXPECT_EQ(active_->fired_count(), 1u);
  EXPECT_EQ(Run("select x.salary from x in employee").value(), "30000");
  (void)oid;
}

TEST_F(TriggerTest, SubclassClosureAndAttributeFilter) {
  ASSERT_TRUE(active_
                  ->Define("trigger audit on update of "
                           "person.name do tick")
                  .ok());
  std::string e = Run("create employee ()").value();
  TimePoint before = db_.now();
  // The trigger is `of person` but fires for an employee (subclass
  // closure)...
  ASSERT_TRUE(Run("update " + e + " set name = 'Ann'").ok());
  EXPECT_EQ(db_.now(), before + 1);
  EXPECT_EQ(active_->fired_count(), 1u);
  // ...and only for the filtered attribute.
  ASSERT_TRUE(Run("update " + e + " set salary = 1").ok());
  EXPECT_EQ(active_->fired_count(), 1u);
}

TEST_F(TriggerTest, MigrateAndDeleteEvents) {
  ASSERT_TRUE(active_
                  ->Define(
                      "trigger promo on migrate of manager do "
                      "update $self set dependents = 0")
                  .ok());
  std::string e = Run("create employee ()").value();
  ASSERT_TRUE(Run("tick").ok());
  ASSERT_TRUE(
      Run("migrate " + e + " to manager set officialcar = 'car'").ok());
  EXPECT_EQ(active_->fired_count(), 1u);
  EXPECT_EQ(Run("select x.dependents from x in manager").value(), "0");
  // Migrating *away* does not match `of manager` (subject's class after
  // the migration is employee).
  ASSERT_TRUE(Run("tick").ok());
  ASSERT_TRUE(Run("migrate " + e + " to employee").ok());
  EXPECT_EQ(active_->fired_count(), 1u);

  size_t fired = active_->fired_count();
  ASSERT_TRUE(
      active_->Define("trigger bye on delete do tick").ok());
  ASSERT_TRUE(Run("delete " + e).ok());
  EXPECT_EQ(active_->fired_count(), fired + 1);
}

TEST_F(TriggerTest, CascadesRunTransitively) {
  // update salary -> bump birthyear -> (no further match).
  ASSERT_TRUE(active_
                  ->Define(
                      "trigger chain1 on update of employee.salary do "
                      "update $self set birthyear = 2000")
                  .ok());
  ASSERT_TRUE(active_
                  ->Define(
                      "trigger chain2 on update of employee.birthyear do "
                      "update $self set office = 'moved'")
                  .ok());
  std::string e = Run("create employee ()").value();
  ASSERT_TRUE(Run("update " + e + " set salary = 1").ok());
  EXPECT_EQ(active_->fired_count(), 2u);
  EXPECT_EQ(Run("select x.office from x in employee").value(), "'moved'");
}

TEST_F(TriggerTest, NonTerminatingCascadeIsStopped) {
  // The termination problem the paper flags: a rule that re-fires itself.
  ASSERT_TRUE(active_
                  ->Define(
                      "trigger loop on update of employee.salary do "
                      "update $self set salary = 1")
                  .ok());
  std::string e = Run("create employee ()").value();
  Result<std::string> r = Run("update " + e + " set salary = 2");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("loop"), std::string::npos);
}

TEST_F(TriggerTest, DefinitionValidation) {
  ASSERT_TRUE(active_->Define("trigger a on delete do check").ok());
  EXPECT_FALSE(
      active_->Define("trigger a on delete do check").ok());  // dup
  // Unparseable actions are rejected at definition time, not at firing.
  EXPECT_FALSE(active_
                   ->Define("trigger b on delete do bogus stmt")
                   .ok());
  EXPECT_EQ(active_->TriggerNames().size(), 1u);
  EXPECT_TRUE(active_->DropTrigger("a").ok());
  EXPECT_FALSE(active_->DropTrigger("a").ok());
}

TEST_F(TriggerTest, ExecuteAcceptsDefinitionForms) {
  // The facade accepts the Section 7 definition statements directly and
  // folds constraints into `check`.
  EXPECT_EQ(Run("trigger starter on create of employee do "
                "update $self set salary = 10")
                .value(),
            "trigger starter defined");
  EXPECT_EQ(Run("constraint pos on employee always x.salary > 0").value(),
            "constraint pos defined");
  std::string e = Run("create employee ()").value();
  EXPECT_EQ(Run("check").value(),
            "consistent (and 1 temporal constraints hold)");
  // Break the constraint (retroactively) and `check` reports it.
  ASSERT_TRUE(db_.UpdateAttributeAt(Oid{1}, "salary", Interval(0, 0),
                                    Value::Integer(-1))
                  .ok());
  Result<std::string> r = Run("check");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConsistencyViolation);
  // Bad definitions are rejected through the same path.
  EXPECT_FALSE(Run("trigger bad on explode do check").ok());
  EXPECT_FALSE(Run("constraint bad on employee never x").ok());
  (void)e;
}

TEST_F(TriggerTest, QueriesFireNothing) {
  ASSERT_TRUE(
      active_->Define("trigger any on update do tick").ok());
  (void)Run("create employee ()");
  ASSERT_TRUE(Run("select x from x in employee").ok());
  ASSERT_TRUE(Run("show classes").ok());
  EXPECT_EQ(active_->fired_count(), 0u);
}

}  // namespace
}  // namespace tchimera

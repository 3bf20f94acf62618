// The Section 7 future-work items, running: temporal integrity
// constraints over object histories and ECA triggers with a termination
// guard — an "active" T_Chimera database.
//
// Build & run:  cmake --build build && ./build/examples/active_database
#include <cstdio>
#include <string>

#include "constraints/constraint.h"
#include "triggers/trigger.h"
#include "workload/project_schema.h"

namespace {

tchimera::ActiveDatabase* g_active = nullptr;

std::string Run(const std::string& stmt) {
  std::printf("tql> %s\n", stmt.c_str());
  tchimera::Result<std::string> out = g_active->Execute(stmt);
  if (!out.ok()) {
    std::printf("  !! %s\n", out.status().ToString().c_str());
    return "";
  }
  std::printf("  %s\n", out->c_str());
  return *out;
}

void Report(const tchimera::Status& s, const char* label) {
  std::printf("%s: %s\n", label, s.ToString().c_str());
}

}  // namespace

int main() {
  tchimera::Database db;
  tchimera::ActiveDatabase active(&db, /*max_cascade_depth=*/8);
  g_active = &active;
  if (!tchimera::InstallProjectSchema(&db).ok()) return 1;

  std::printf("== triggers: reactive rules ==\n");
  // Every new employee gets a starter salary; every promotion to manager
  // initializes dependents.
  (void)active.Define(
      "trigger starter on create of employee do "
      "update $self set salary = 30000");
  (void)active.Define(
      "trigger promo on migrate of manager do "
      "update $self set dependents = 0");
  std::string ann = Run("create employee (name: 'Ann', office: 'A1')");
  Run("select x.salary from x in employee");
  Run("tick 10");
  Run("migrate " + ann + " to manager set officialcar = 'sedan'");
  Run("select x.dependents from x in manager");
  std::printf("(triggers fired so far: %zu)\n\n", active.fired_count());

  std::printf("== the termination problem, contained ==\n");
  (void)active.Define(
      "trigger loop on update of manager.dependents do "
      "update $self set dependents = 1");
  Run("update " + ann + " set dependents = 5");  // self-refiring rule
  (void)active.DropTrigger("loop");
  std::printf("\n");

  std::printf("== temporal integrity constraints over histories ==\n");
  tchimera::ConstraintRegistry constraints;
  (void)constraints.Define(
      "constraint positive-pay on employee always x.salary > 0");
  (void)constraints.Define(
      "constraint no-pay-cuts on employee nondecreasing salary");
  (void)constraints.Define(
      "constraint stable-name on person immutable name");
  Report(constraints.CheckAll(db), "initial check");

  Run("tick 10");
  Run("update " + ann + " set salary = 45000");
  Report(constraints.CheckAll(db), "after a raise");

  Run("tick 10");
  Run("update " + ann + " set salary = 20000");  // a pay cut!
  Report(constraints.CheckAll(db), "after a pay cut");

  // Retroactive corrections are also policed: sneak a violation into the
  // past and the history-aware checker still sees it.
  Run("update " + ann + " set salary = 45000 during [25,27]");
  Report(constraints.CheckObject(db, db.AllOids().front()),
         "per-object incremental check");

  std::printf("\n== constraints + triggers together ==\n");
  // A trigger enforcing a constraint reactively: any salary write is
  // immediately floored (the action itself satisfies positive-pay).
  (void)active.Define(
      "trigger floor on create of employee do "
      "update $self set salary = 1");
  std::string intern = Run("create employee (name: 'Iggy')");
  Run("history " + intern + ".salary");
  Report(constraints.Find("positive-pay")->Check(db),
         "positive-pay after reactive floor");
  return 0;
}

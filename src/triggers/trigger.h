// Temporal triggers — the Section 7 future-work item ("we plan to extend
// Chimera triggers ... with time; issues such as termination and
// confluence will need to be re-visited") made concrete at the TQL
// surface.
//
// An ECA rule:
//
//   trigger NAME on EVENT [of CLASS[.ATTR]] do <tql-statement>
//
//   EVENT := create | update | migrate | delete
//   CLASS filters by the subject's most specific class (subclasses
//         match: a trigger `of person` fires for employees too);
//   ATTR  further filters update events by the touched attribute;
//   the action is any TQL statement; `$self` inside it is replaced by the
//   subject's oid before execution. The definition forms themselves are
//   not TQL, so an action can never change the definitions.
//
// Definitions are schema: they live in the Database as one immutable
// DefinitionSet (below), so they ride COW copies, MVCC publication,
// optimistic commit validation and snapshots like every other schema
// change. ActiveDatabase is the execution facade over a Database and
// holds no definitions of its own: statements go through it, the database's matching triggers
// fire after a successful mutation, and trigger actions may recursively
// fire further triggers. Termination — the issue the paper flags — is
// handled by a cascade depth limit: exceeding it aborts the statement
// with FailedPrecondition and reports the trigger chain.
#ifndef TCHIMERA_TRIGGERS_TRIGGER_H_
#define TCHIMERA_TRIGGERS_TRIGGER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "constraints/constraint.h"
#include "core/db/database.h"
#include "query/interpreter.h"

namespace tchimera {

enum class TriggerEvent { kCreate, kUpdate, kMigrate, kDelete };

const char* TriggerEventName(TriggerEvent event);

struct Trigger {
  std::string name;
  TriggerEvent event = TriggerEvent::kUpdate;
  std::string class_filter;  // empty = any class
  std::string attr_filter;   // update events only; empty = any attribute
  std::string action;        // TQL with $self placeholder

  // Parses the textual form above.
  static Result<Trigger> Parse(std::string_view text);
  std::string ToString() const;
};

// The trigger and constraint definitions of one database state, in
// definition order. Immutable once installed (Database::SetDefinitions):
// a change builds a modified copy and installs it wholesale.
struct DefinitionSet {
  std::vector<Trigger> triggers;
  ConstraintRegistry constraints;

  // Every trigger, then every constraint, each in the exact re-parseable
  // form ActiveDatabase::Execute accepts — the snapshot's DEFINE records
  // (docs/PERSISTENCE.md).
  std::vector<std::string> Statements() const;
};

class ActiveDatabase {
 public:
  // Does not take ownership; `db` must outlive this facade.
  explicit ActiveDatabase(Database* db, size_t max_cascade_depth = 16)
      : db_(db), interp_(db), max_depth_(max_cascade_depth) {}

  Database& db() { return *db_; }
  const Database& db() const { return *db_; }

  // Removes a trigger from the database's definition set (Define adds).
  Status DropTrigger(std::string_view name);
  std::vector<std::string> TriggerNames() const;

  // Opt-in static analysis for statements executed through this facade
  // (forwarded to the internal interpreter; see Interpreter::set_lint).
  void set_lint(DiagnosticEngine* diags) { interp_.set_lint(diags); }

  // Installs one of the two Section 7 definition forms:
  //   trigger NAME on EVENT [of CLASS[.ATTR]] do <stmt>
  //   constraint NAME on CLASS (always|sometime) <expr>
  //   constraint NAME on CLASS (nondecreasing|immutable) ATTR
  // Any other statement is InvalidArgument. The definition is stored in
  // its canonical one-line text (Statement::text). Returns the
  // acknowledgement ("trigger NAME defined").
  Result<std::string> Define(std::string_view statement);

  // Executes a statement; on a successful mutation, fires matching
  // triggers (and their cascades). Returns the statement's own output.
  // Beyond plain TQL this facade also accepts the definition forms above
  // (see Define) and extends `check` to also evaluate every defined
  // constraint.
  Result<std::string> Execute(std::string_view statement);
  // The same for an already-parsed statement (the engine's write path
  // parses once and may execute the parse more than once).
  Result<std::string> Execute(Statement* stmt);

  // Trigger firings since construction (diagnostics / benchmarks).
  size_t fired_count() const { return fired_; }

 private:
  struct Event {
    TriggerEvent kind;
    Oid subject;
    std::string attr;  // update events
  };

  // A modifiable copy of the database's current definitions.
  DefinitionSet CurrentDefinitions() const;
  // True if `trigger` matches `event` under the current schema.
  bool Matches(const Trigger& trigger, const Event& event) const;
  // Runs all matching triggers for `event`; `chain` carries the firing
  // path for the termination diagnostic.
  Status Fire(const Event& event, std::vector<std::string>* chain);
  Result<std::string> ExecuteInternal(Statement* stmt,
                                      std::vector<std::string>* chain);
  // Installs a parsed kTrigger / kConstraint statement.
  Result<std::string> Define(const Statement& stmt);

  Database* db_;
  Interpreter interp_;
  size_t max_depth_;
  size_t fired_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_TRIGGERS_TRIGGER_H_

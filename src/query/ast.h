// Abstract syntax of TQL.
//
// Expressions are evaluated *at an instant*: the query's AT time (default
// `now`). Accessing a temporal attribute without an explicit `@ t`
// projects it at that instant — this is exactly the snapshot coercion of
// Section 6.1, surfaced in the language; `@ t` projects at another
// instant. Full histories are reached through the HISTORY statement, not
// through expressions, so expression types are always non-temporal.
#ifndef TCHIMERA_QUERY_AST_H_
#define TCHIMERA_QUERY_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/source_span.h"
#include "core/schema/class_def.h"
#include "core/temporal/interval.h"
#include "core/types/type.h"
#include "core/values/value.h"

namespace tchimera {

enum class ExprKind {
  kLiteral,     // 42, 'IDEA', true, null, i7, t42
  kVar,         // the FROM binder
  kAttrAccess,  // base.attr [@ t]
  kNot,         // not e
  kNegate,      // - e
  kBinary,      // e op e
  kCall,        // size(e), defined(e), videntical(x,y), ...
  kSetCtor,     // { e1, ..., en }
  kListCtor,    // [ e1, ..., en ]
  kRecCtor,     // rec(a: e, ...)
};

enum class BinaryOp {
  kEq,
  kNeq,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kIn,   // membership in a set or list
  kAdd,
  kSub,
  kMul,
  kDiv,
};

const char* BinaryOpName(BinaryOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind = ExprKind::kLiteral;
  size_t position = 0;  // for error messages
  // Byte span of the whole expression in the parsed input. A
  // parenthesized expression's span includes its parentheses, so fix-it
  // deletions anchored to operand spans stay balanced. Invalid when the
  // AST was built programmatically.
  SourceSpan span;
  // kAttrAccess only: the span of the explicit "@ t" suffix (the '@'
  // token through the instant literal), for fix-its that drop it.
  SourceSpan at_span;

  Value literal;               // kLiteral
  std::string name;            // kVar / kAttrAccess (attribute) / kCall
  ExprPtr base;                // kAttrAccess / kNot / kNegate / kBinary lhs
  ExprPtr rhs;                 // kBinary rhs
  BinaryOp op = BinaryOp::kEq;
  std::optional<TimePoint> at;  // kAttrAccess explicit @ t
  std::vector<ExprPtr> args;   // kCall / kSetCtor / kListCtor
  std::vector<std::pair<std::string, ExprPtr>> rec_fields;  // kRecCtor

  // Filled in by the type checker.
  const Type* inferred = nullptr;

  std::string ToString() const;
};

// --- statements ---------------------------------------------------------------

struct DefineClassStmt {
  ClassSpec spec;
  // Removal spans parallel to spec.attributes / spec.c_attributes: the
  // byte range to delete to drop declaration i from its section,
  // including the list separator (or the section keyword when it is the
  // only declaration). Empty when the spec was built programmatically.
  std::vector<SourceSpan> attribute_spans;
  std::vector<SourceSpan> c_attribute_spans;
};

struct DropClassStmt {
  std::string name;
};

// `create index <name> on <class> ( <attr> )` — an equality/range index
// over the attribute's values — or `create index <name> on <class>
// lifespan` — a timeline index over object lifespans (core/db/index.h).
struct CreateIndexStmt {
  std::string name;
  std::string class_name;
  std::string attr;       // empty for a lifespan index
  bool lifespan = false;
};

struct DropIndexStmt {
  std::string name;
};

struct CreateStmt {
  std::string class_name;
  std::vector<std::pair<std::string, ExprPtr>> inits;
  std::optional<TimePoint> at;  // retroactive creation
};

struct UpdateStmt {
  Oid oid;
  std::string attr;
  ExprPtr value;
  std::optional<Interval> during;  // valid-time update window
  // Spans of the two `during` endpoint literals (for swap fix-its).
  SourceSpan during_start_span;
  SourceSpan during_end_span;
};

struct MigrateStmt {
  Oid oid;
  std::string to_class;
  std::vector<std::pair<std::string, ExprPtr>> sets;
};

struct DeleteStmt {
  Oid oid;
};

struct SelectBinder {
  std::string var;
  std::string class_name;
  size_t position = 0;  // byte offset of the binder, for diagnostics
  // The byte range to delete to drop this binder from the FROM list,
  // including the list separator. Invalid when built programmatically.
  SourceSpan remove_span;
};

struct SelectStmt {
  // Projections; a bare `select x` yields the oids themselves.
  std::vector<ExprPtr> projections;
  // One or more binders: `from x in c1, y in c2` iterates the cartesian
  // product of the classes' extents at the evaluation instant.
  std::vector<SelectBinder> binders;
  std::optional<TimePoint> at;  // evaluation instant (default now)
  ExprPtr where;                // may be null
  // The `where` keyword through the end of the predicate (for fix-its
  // that drop a statically-true filter).
  SourceSpan where_span;
};

struct SnapshotStmt {
  Oid oid;
  std::optional<TimePoint> at;
};

struct HistoryStmt {
  Oid oid;
  std::string attr;
  // Optional `during [a,b]`: clip the reported history to the window.
  std::optional<Interval> during;
  SourceSpan during_start_span;
  SourceSpan during_end_span;
};

struct TickStmt {
  int64_t steps = 1;
};

struct AdvanceStmt {
  TimePoint to = 0;
};

struct CheckStmt {};

// WHEN <expr>: temporal selection — the instants at which a closed (no
// binder) boolean condition over specific objects held, reported as a
// coalesced interval set. The temporal analog of TQuel's valid clause;
// e.g. `when i1.salary > 50000 and i2 in i3.participants`.
struct WhenStmt {
  ExprPtr condition;
  // Optional `during [a,b]`: intersect the answer with the window.
  std::optional<Interval> during;
  SourceSpan during_start_span;
  SourceSpan during_end_span;
};

struct ShowStmt {
  enum class What { kClass, kObject, kClasses, kNow };
  What what = What::kNow;
  std::string name;  // kClass
  Oid oid;           // kObject
};

struct Statement {
  enum class Kind {
    kDefineClass,
    kDropClass,
    kCreateIndex,
    kDropIndex,
    kCreate,
    kUpdate,
    kMigrate,
    kDelete,
    kSelect,
    kSnapshot,
    kHistory,
    kTick,
    kAdvance,
    kCheck,
    kWhen,
    kShow,
    kExplain,
    // The Section 7 definition forms: the parser finds only their
    // extent; ActiveDatabase parses `text` (triggers/trigger.h).
    kTrigger,
    kConstraint,
  };
  Kind kind = Kind::kCheck;
  // Byte offset of the statement's first token in the parsed input (for
  // script-level diagnostics; offsets are absolute within the script).
  size_t position = 0;
  // The statement's canonical one-line text (CanonicalText in lexer.h):
  // its plan-cache key and the text the engine journals.
  std::string text;

  // Exactly the member matching `kind` is populated (kept flat rather than
  // a variant for readable accessors).
  std::optional<DefineClassStmt> define_class;
  std::optional<DropClassStmt> drop_class;
  std::optional<CreateIndexStmt> create_index;
  std::optional<DropIndexStmt> drop_index;
  std::optional<CreateStmt> create;
  std::optional<UpdateStmt> update;
  std::optional<MigrateStmt> migrate;
  std::optional<DeleteStmt> del;
  std::optional<SelectStmt> select;
  std::optional<SnapshotStmt> snapshot;
  std::optional<HistoryStmt> history;
  std::optional<TickStmt> tick;
  std::optional<AdvanceStmt> advance;
  std::optional<WhenStmt> when;
  std::optional<ShowStmt> show;
  // kExplain: the statement being explained (`explain <stmt>` prints its
  // lowered ExecProgram, or the reason it falls back to the tree-walker).
  std::unique_ptr<Statement> explain_inner;
};

// How the engine routes each statement kind (query/session.cc); this
// table is the one place that says it.
struct KindTraits {
  bool read = false;       // runs on a pinned snapshot, beside writers
  bool journaled = false;  // handed to the CommitSink when it commits
  // Takes the exclusive writer outright: schema changes have a
  // schema-wide footprint (an index build scans every object shard), so
  // an optimistic attempt is doomed once any other writer commits.
  bool exclusive = false;
};

constexpr KindTraits TraitsOf(Statement::Kind kind) {
  using Kind = Statement::Kind;
  switch (kind) {
    case Kind::kSelect:
    case Kind::kSnapshot:
    case Kind::kHistory:
    case Kind::kWhen:
    case Kind::kShow:
    case Kind::kExplain:  // lowers its inner statement, never executes it
      return {.read = true};
    case Kind::kDefineClass:
    case Kind::kDropClass:
    case Kind::kCreateIndex:
    case Kind::kDropIndex:
    case Kind::kTrigger:
    case Kind::kConstraint:
      return {.journaled = true, .exclusive = true};
    case Kind::kCreate:
    case Kind::kUpdate:
    case Kind::kMigrate:
    case Kind::kDelete:
    case Kind::kTick:
    case Kind::kAdvance:
      return {.journaled = true};
    case Kind::kCheck:  // ActiveDatabase adds the constraints; changes nothing
      return {};
  }
  return {};
}

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_AST_H_

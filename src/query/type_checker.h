// Static type checking of TQL expressions, built directly on the typing
// machinery of Section 3.2 (the paper: "such typing rules are also the
// basis for type checking the expressions of the T_Chimera language").
//
// Key rules:
//   - the FROM binder has the object type of its class;
//   - base.attr where base : c requires attr in class c; if the attribute
//     domain is temporal(T) the access *coerces* to T (the snapshot
//     coercion of Section 6.1) — with `@ t` the projection instant is
//     explicit, otherwise it is the query's evaluation instant;
//   - `@ t` on a non-temporal attribute is a type error for t != now
//     (static attributes have no recorded past);
//   - comparisons require the operand types to be related by <=_T (either
//     direction) or both numeric of the same kind;
//   - `e in s` requires s : set-of(T) or list-of(T) with the type of e
//     related to T;
//   - set/list constructors use the least upper bound of the element
//     types, exactly like the value typing rules of Definition 3.6.
#ifndef TCHIMERA_QUERY_TYPE_CHECKER_H_
#define TCHIMERA_QUERY_TYPE_CHECKER_H_

#include <map>
#include <string>

#include "common/result.h"
#include "core/db/database.h"
#include "query/ast.h"

namespace tchimera {

// The static environment of one query: binder name -> class name.
using TypeEnv = std::map<std::string, std::string, std::less<>>;

// Checks `expr` against the database schema and environment, annotating
// every node's `inferred` type. Returns the expression's type.
Result<const Type*> TypeCheckExpr(Expr* expr, const Database& db,
                                  const TypeEnv& env);
// The same check without annotating: `expr` is left untouched, so it is
// safe on an AST that other threads read or check at the same time (a
// constraint condition in the database's shared DefinitionSet).
Result<const Type*> TypeOfExpr(const Expr& expr, const Database& db,
                               const TypeEnv& env);

// Checks a whole SELECT statement: binder, projections and WHERE (which
// must be bool). Returns the projection types.
Result<std::vector<const Type*>> TypeCheckSelect(SelectStmt* stmt,
                                                 const Database& db);

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_TYPE_CHECKER_H_

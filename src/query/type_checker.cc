#include "query/type_checker.h"

#include "core/types/type_registry.h"
#include "core/values/typing.h"

namespace tchimera {
namespace {

bool IsNumeric(const Type* t) {
  return t->kind() == TypeKind::kInteger || t->kind() == TypeKind::kReal;
}

bool Comparable(const Type* a, const Type* b, const IsaProvider& isa) {
  return IsSubtype(a, b, isa) || IsSubtype(b, a, isa);
}

Status TypeErrorAt(const Expr& e, const std::string& what) {
  return Status::TypeError(what + " (in '" + e.ToString() + "')");
}

// With `annotate`, records each node's type in its `inferred` field; the
// const_cast is sound because only TypeCheckExpr, which holds a mutable
// AST, asks for annotations.
class Checker {
 public:
  Checker(const Database& db, const TypeEnv& env, bool annotate)
      : db_(db), env_(env), annotate_(annotate) {}

  Result<const Type*> Check(const Expr* e) {
    TCH_ASSIGN_OR_RETURN(const Type* t, CheckNode(e));
    if (annotate_) const_cast<Expr*>(e)->inferred = t;
    return t;
  }

 private:
  Result<const Type*> CheckNode(const Expr* e) {
    switch (e->kind) {
      case ExprKind::kLiteral:
        // Literals are closed values; the value typing rules apply
        // directly (oid literals are typed by their most specific class).
        return InferType(e->literal, db_.now(), db_.typing_context());
      case ExprKind::kVar: {
        auto it = env_.find(e->name);
        if (it == env_.end()) {
          return TypeErrorAt(*e, "unbound variable '" + e->name + "'");
        }
        return types::Object(it->second);
      }
      case ExprKind::kAttrAccess:
        return CheckAttrAccess(e);
      case ExprKind::kNot: {
        TCH_ASSIGN_OR_RETURN(const Type* t, Check(e->base.get()));
        if (t->kind() != TypeKind::kBool) {
          return TypeErrorAt(*e, "'not' requires bool, got " + t->ToString());
        }
        return types::Bool();
      }
      case ExprKind::kNegate: {
        TCH_ASSIGN_OR_RETURN(const Type* t, Check(e->base.get()));
        if (!IsNumeric(t)) {
          return TypeErrorAt(*e,
                             "unary '-' requires a number, got " +
                                 t->ToString());
        }
        return t;
      }
      case ExprKind::kBinary:
        return CheckBinary(e);
      case ExprKind::kCall:
        return CheckCall(e);
      case ExprKind::kSetCtor:
      case ExprKind::kListCtor: {
        const Type* lub = types::Any();
        for (const ExprPtr& a : e->args) {
          TCH_ASSIGN_OR_RETURN(const Type* t, Check(a.get()));
          TCH_ASSIGN_OR_RETURN(lub, LeastUpperBound(lub, t, db_.isa()));
        }
        return e->kind == ExprKind::kSetCtor ? types::SetOf(lub)
                                             : types::ListOf(lub);
      }
      case ExprKind::kRecCtor: {
        std::vector<RecordField> fields;
        for (auto& [name, fe] : e->rec_fields) {
          TCH_ASSIGN_OR_RETURN(const Type* t, Check(fe.get()));
          fields.push_back({name, t});
        }
        return types::RecordOf(std::move(fields));
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  Result<const Type*> CheckAttrAccess(const Expr* e) {
    TCH_ASSIGN_OR_RETURN(const Type* base_t, Check(e->base.get()));
    if (base_t->kind() != TypeKind::kObject) {
      return TypeErrorAt(*e, "attribute access on non-object type " +
                                 base_t->ToString());
    }
    TCH_ASSIGN_OR_RETURN(const ClassDef* cls,
                         db_.FindClass(base_t->class_name()));
    const AttributeDef* attr = cls->FindAttribute(e->name);
    if (attr == nullptr) {
      return TypeErrorAt(*e, "class " + cls->name() + " has no attribute '" +
                                 e->name + "'");
    }
    if (attr->is_temporal()) {
      // The access projects the temporal function: the coercion of
      // Section 6.1. The result is the static counterpart T^-.
      return attr->type->element();
    }
    // `@ t` on a static attribute is only meaningful at the current time.
    if (e->at.has_value() && !IsNow(*e->at)) {
      return TypeErrorAt(
          *e, "attribute '" + e->name +
                  "' is non-temporal: its value at a past instant is not "
                  "recorded (Section 5.2)");
    }
    return attr->type;
  }

  Result<const Type*> CheckBinary(const Expr* e) {
    TCH_ASSIGN_OR_RETURN(const Type* lt, Check(e->base.get()));
    TCH_ASSIGN_OR_RETURN(const Type* rt, Check(e->rhs.get()));
    switch (e->op) {
      case BinaryOp::kAnd:
      case BinaryOp::kOr:
        if (lt->kind() != TypeKind::kBool || rt->kind() != TypeKind::kBool) {
          return TypeErrorAt(*e, "boolean connective requires bool operands");
        }
        return types::Bool();
      case BinaryOp::kEq:
      case BinaryOp::kNeq:
        if (!Comparable(lt, rt, db_.isa())) {
          return TypeErrorAt(*e, "cannot compare " + lt->ToString() +
                                     " with " + rt->ToString());
        }
        return types::Bool();
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        bool ordered =
            (IsNumeric(lt) && lt == rt) ||
            (lt->kind() == TypeKind::kString &&
             rt->kind() == TypeKind::kString) ||
            (lt->kind() == TypeKind::kTime && rt->kind() == TypeKind::kTime) ||
            (lt->kind() == TypeKind::kChar && rt->kind() == TypeKind::kChar) ||
            lt->kind() == TypeKind::kAny || rt->kind() == TypeKind::kAny;
        if (!ordered) {
          return TypeErrorAt(*e, "no ordering between " + lt->ToString() +
                                     " and " + rt->ToString());
        }
        return types::Bool();
      }
      case BinaryOp::kIn: {
        if (!rt->IsCollection() && rt->kind() != TypeKind::kAny) {
          return TypeErrorAt(*e, "'in' requires a set or list, got " +
                                     rt->ToString());
        }
        if (rt->IsCollection() &&
            !Comparable(lt, rt->element(), db_.isa())) {
          return TypeErrorAt(*e, "element type " + lt->ToString() +
                                     " does not match collection " +
                                     rt->ToString());
        }
        return types::Bool();
      }
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv:
        if (!IsNumeric(lt) || lt != rt) {
          return TypeErrorAt(
              *e, "arithmetic requires two integers or two reals, got " +
                      lt->ToString() + " and " + rt->ToString());
        }
        return lt;
    }
    return Status::Internal("unhandled binary op");
  }

  Result<const Type*> CheckCall(const Expr* e) {
    const std::string& fn = e->name;
    if (fn == "size") {
      if (e->args.size() != 1) {
        return TypeErrorAt(*e, "size() takes one argument");
      }
      TCH_ASSIGN_OR_RETURN(const Type* t, Check(e->args[0].get()));
      if (!t->IsCollection() && t->kind() != TypeKind::kAny) {
        return TypeErrorAt(*e, "size() requires a set or list, got " +
                                   t->ToString());
      }
      return types::Integer();
    }
    if (fn == "defined") {
      if (e->args.size() != 1) {
        return TypeErrorAt(*e, "defined() takes one argument");
      }
      TCH_RETURN_IF_ERROR(Check(e->args[0].get()).status());
      return types::Bool();
    }
    if (fn == "snapshot") {
      // snapshot(x [, t]): the projected state of an object.
      if (e->args.empty() || e->args.size() > 2) {
        return TypeErrorAt(*e, "snapshot() takes one or two arguments");
      }
      TCH_ASSIGN_OR_RETURN(const Type* t, Check(e->args[0].get()));
      if (t->kind() != TypeKind::kObject) {
        return TypeErrorAt(*e, "snapshot() requires an object, got " +
                                   t->ToString());
      }
      if (e->args.size() == 2) {
        TCH_ASSIGN_OR_RETURN(const Type* tt, Check(e->args[1].get()));
        if (tt->kind() != TypeKind::kTime) {
          return TypeErrorAt(*e, "snapshot() instant must be a time value");
        }
      }
      // The snapshot record projects every attribute at the instant:
      // temporal attribute domains are coerced to T^-.
      TCH_ASSIGN_OR_RETURN(const ClassDef* cls,
                           db_.FindClass(t->class_name()));
      std::vector<RecordField> fields;
      for (const AttributeDef& a : cls->attributes()) {
        fields.push_back(
            {a.name, a.is_temporal() ? a.type->element() : a.type});
      }
      return types::RecordOf(std::move(fields));
    }
    if (fn == "lifespan") {
      if (e->args.size() != 1) {
        return TypeErrorAt(*e, "lifespan() takes one argument");
      }
      TCH_ASSIGN_OR_RETURN(const Type* t, Check(e->args[0].get()));
      if (t->kind() != TypeKind::kObject) {
        return TypeErrorAt(*e, "lifespan() requires an object");
      }
      // Reported as the list [start, end].
      return types::ListOf(types::Time());
    }
    if (fn == "videntical" || fn == "vequal" || fn == "vinstant" ||
        fn == "vweak" || fn == "vdeep") {
      if (e->args.size() != 2) {
        return TypeErrorAt(*e, fn + "() takes two objects");
      }
      for (const ExprPtr& a : e->args) {
        TCH_ASSIGN_OR_RETURN(const Type* t, Check(a.get()));
        if (t->kind() != TypeKind::kObject) {
          return TypeErrorAt(*e, fn + "() requires objects, got " +
                                     t->ToString());
        }
      }
      return types::Bool();
    }
    return TypeErrorAt(*e, "unknown function '" + fn + "'");
  }

  const Database& db_;
  const TypeEnv& env_;
  const bool annotate_;
};

}  // namespace

Result<const Type*> TypeCheckExpr(Expr* expr, const Database& db,
                                  const TypeEnv& env) {
  return Checker(db, env, /*annotate=*/true).Check(expr);
}

Result<const Type*> TypeOfExpr(const Expr& expr, const Database& db,
                               const TypeEnv& env) {
  return Checker(db, env, /*annotate=*/false).Check(&expr);
}

Result<std::vector<const Type*>> TypeCheckSelect(SelectStmt* stmt,
                                                 const Database& db) {
  TypeEnv env;
  for (const SelectBinder& binder : stmt->binders) {
    TCH_RETURN_IF_ERROR(db.FindClass(binder.class_name).status());
    if (!env.emplace(binder.var, binder.class_name).second) {
      return Status::TypeError("duplicate binder '" + binder.var +
                               "' in FROM clause");
    }
  }
  std::vector<const Type*> out;
  for (ExprPtr& p : stmt->projections) {
    TCH_ASSIGN_OR_RETURN(const Type* t, TypeCheckExpr(p.get(), db, env));
    out.push_back(t);
  }
  if (stmt->where != nullptr) {
    TCH_ASSIGN_OR_RETURN(const Type* t,
                         TypeCheckExpr(stmt->where.get(), db, env));
    if (t->kind() != TypeKind::kBool) {
      return Status::TypeError("WHERE clause must be bool, got " +
                               t->ToString());
    }
  }
  return out;
}

}  // namespace tchimera

#include "triggers/trigger.h"

#include <cctype>
#include <cstdlib>
#include <memory>

#include "common/string_util.h"
#include "query/parser.h"

namespace tchimera {

const char* TriggerEventName(TriggerEvent event) {
  switch (event) {
    case TriggerEvent::kCreate:
      return "create";
    case TriggerEvent::kUpdate:
      return "update";
    case TriggerEvent::kMigrate:
      return "migrate";
    case TriggerEvent::kDelete:
      return "delete";
  }
  return "?";
}

Result<Trigger> Trigger::Parse(std::string_view text) {
  std::string_view rest = StripWhitespace(text);
  auto take_word = [&rest]() -> std::string {
    rest = StripWhitespace(rest);
    size_t end = 0;
    while (end < rest.size() &&
           !std::isspace(static_cast<unsigned char>(rest[end]))) {
      ++end;
    }
    std::string word(rest.substr(0, end));
    rest = rest.substr(end);
    return word;
  };
  if (take_word() != "trigger") {
    return Status::InvalidArgument(
        "expected 'trigger NAME on EVENT [of CLASS[.ATTR]] do <stmt>'");
  }
  Trigger t;
  t.name = take_word();
  if (!IsIdentifier(t.name)) {
    return Status::InvalidArgument("bad trigger name '" + t.name + "'");
  }
  if (take_word() != "on") {
    return Status::InvalidArgument("expected 'on' after the trigger name");
  }
  std::string event = take_word();
  if (event == "create") {
    t.event = TriggerEvent::kCreate;
  } else if (event == "update") {
    t.event = TriggerEvent::kUpdate;
  } else if (event == "migrate") {
    t.event = TriggerEvent::kMigrate;
  } else if (event == "delete") {
    t.event = TriggerEvent::kDelete;
  } else {
    return Status::InvalidArgument(
        "unknown trigger event '" + event +
        "' (expected create | update | migrate | delete)");
  }
  std::string word = take_word();
  if (word == "of") {
    std::string target = take_word();
    size_t dot = target.find('.');
    if (dot == std::string::npos) {
      t.class_filter = target;
    } else {
      t.class_filter = target.substr(0, dot);
      t.attr_filter = target.substr(dot + 1);
      if (t.event != TriggerEvent::kUpdate) {
        return Status::InvalidArgument(
            "attribute filters only apply to update triggers");
      }
    }
    if (!IsIdentifier(t.class_filter) ||
        (!t.attr_filter.empty() && !IsIdentifier(t.attr_filter))) {
      return Status::InvalidArgument("bad 'of' target '" + target + "'");
    }
    word = take_word();
  }
  if (word != "do") {
    return Status::InvalidArgument("expected 'do' before the action");
  }
  t.action = std::string(StripWhitespace(rest));
  if (t.action.empty()) {
    return Status::InvalidArgument("trigger '" + t.name +
                                   "' has an empty action");
  }
  return t;
}

std::string Trigger::ToString() const {
  std::string out = "trigger " + name + " on " + TriggerEventName(event);
  if (!class_filter.empty()) {
    out += " of " + class_filter;
    if (!attr_filter.empty()) out += "." + attr_filter;
  }
  out += " do " + action;
  return out;
}

std::vector<std::string> DefinitionSet::Statements() const {
  std::vector<std::string> out;
  out.reserve(triggers.size() + constraints.size());
  for (const Trigger& t : triggers) out.push_back(t.ToString());
  for (const std::string& name : constraints.Names()) {
    out.push_back(constraints.Find(name)->ToString());
  }
  return out;
}

DefinitionSet ActiveDatabase::CurrentDefinitions() const {
  const DefinitionSet* defs = db_->definitions();
  return defs == nullptr ? DefinitionSet{} : *defs;
}

Status ActiveDatabase::DropTrigger(std::string_view name) {
  DefinitionSet next = CurrentDefinitions();
  for (auto it = next.triggers.begin(); it != next.triggers.end(); ++it) {
    if (it->name == name) {
      next.triggers.erase(it);
      db_->SetDefinitions(
          std::make_shared<const DefinitionSet>(std::move(next)));
      return Status::OK();
    }
  }
  return Status::NotFound("no trigger named '" + std::string(name) + "'");
}

std::vector<std::string> ActiveDatabase::TriggerNames() const {
  std::vector<std::string> out;
  const DefinitionSet* defs = db_->definitions();
  if (defs == nullptr) return out;
  out.reserve(defs->triggers.size());
  for (const Trigger& t : defs->triggers) out.push_back(t.name);
  return out;
}

bool ActiveDatabase::Matches(const Trigger& trigger,
                             const Event& event) const {
  if (trigger.event != event.kind) return false;
  if (!trigger.attr_filter.empty() && trigger.attr_filter != event.attr) {
    return false;
  }
  if (trigger.class_filter.empty()) return true;
  const Object* obj = db_->GetObject(event.subject);
  if (obj == nullptr) return false;
  std::optional<std::string> cls = obj->CurrentClass();
  if (!cls.has_value()) return false;
  // Subclass closure: a trigger `of person` fires for employees.
  return db_->isa().IsSubclassOf(*cls, trigger.class_filter);
}

Result<std::string> ActiveDatabase::Define(std::string_view statement) {
  TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  if (stmt.kind != Statement::Kind::kTrigger &&
      stmt.kind != Statement::Kind::kConstraint) {
    return Status::InvalidArgument(
        "expected a 'trigger' or 'constraint' definition");
  }
  return Define(stmt);
}

Result<std::string> ActiveDatabase::Define(const Statement& stmt) {
  DefinitionSet next = CurrentDefinitions();
  std::string out;
  if (stmt.kind == Statement::Kind::kTrigger) {
    TCH_ASSIGN_OR_RETURN(Trigger t, Trigger::Parse(stmt.text));
    for (const Trigger& existing : next.triggers) {
      if (existing.name == t.name) {
        return Status::AlreadyExists("trigger '" + t.name +
                                     "' already defined");
      }
    }
    // The action must at least parse now, not at firing time, and be
    // plain TQL: an action can never change the definitions.
    std::string probe = t.action;
    size_t pos;
    while ((pos = probe.find("$self")) != std::string::npos) {
      probe.replace(pos, 5, "i1");
    }
    TCH_ASSIGN_OR_RETURN(Statement action, ParseStatement(probe));
    if (action.kind == Statement::Kind::kTrigger ||
        action.kind == Statement::Kind::kConstraint) {
      return Status::InvalidArgument("trigger '" + t.name +
                                     "' action cannot be a definition");
    }
    out = "trigger " + t.name + " defined";
    next.triggers.push_back(std::move(t));
  } else {
    TCH_RETURN_IF_ERROR(next.constraints.Define(stmt.text));
    out = "constraint " + next.constraints.Names().back() + " defined";
  }
  db_->SetDefinitions(std::make_shared<const DefinitionSet>(std::move(next)));
  return out;
}

Result<std::string> ActiveDatabase::Execute(std::string_view statement) {
  TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  return Execute(&stmt);
}

Result<std::string> ActiveDatabase::Execute(Statement* stmt) {
  if (stmt->kind == Statement::Kind::kTrigger ||
      stmt->kind == Statement::Kind::kConstraint) {
    return Define(*stmt);
  }
  std::vector<std::string> chain;
  TCH_ASSIGN_OR_RETURN(std::string out, ExecuteInternal(stmt, &chain));
  // `check` additionally evaluates the defined constraints.
  const DefinitionSet* defs = db_->definitions();
  if (stmt->kind == Statement::Kind::kCheck && defs != nullptr &&
      defs->constraints.size() > 0) {
    TCH_RETURN_IF_ERROR(defs->constraints.CheckAll(*db_));
    out += " (and " + std::to_string(defs->constraints.size()) +
           " temporal constraints hold)";
  }
  return out;
}

Result<std::string> ActiveDatabase::ExecuteInternal(
    Statement* stmt, std::vector<std::string>* chain) {
  if (chain->size() > max_depth_) {
    std::string path = Join(*chain, " -> ");
    return Status::FailedPrecondition(
        "trigger cascade exceeded depth " + std::to_string(max_depth_) +
        " (non-terminating rule set? chain: " + path + ")");
  }
  TCH_ASSIGN_OR_RETURN(std::string out, interp_.ExecuteStatement(stmt));

  // Derive the event (if any) from the executed statement.
  Event event;
  switch (stmt->kind) {
    case Statement::Kind::kCreate: {
      event.kind = TriggerEvent::kCreate;
      // CREATE's output is the new oid ("i<n>").
      event.subject = Oid{std::strtoull(out.c_str() + 1, nullptr, 10)};
      break;
    }
    case Statement::Kind::kUpdate:
      event.kind = TriggerEvent::kUpdate;
      event.subject = stmt->update->oid;
      event.attr = stmt->update->attr;
      break;
    case Statement::Kind::kMigrate:
      event.kind = TriggerEvent::kMigrate;
      event.subject = stmt->migrate->oid;
      break;
    case Statement::Kind::kDelete:
      event.kind = TriggerEvent::kDelete;
      event.subject = stmt->del->oid;
      break;
    default:
      return out;  // queries and clock ops fire nothing
  }
  TCH_RETURN_IF_ERROR(Fire(event, chain));
  return out;
}

Status ActiveDatabase::Fire(const Event& event,
                            std::vector<std::string>* chain) {
  // Actions are plain TQL, which cannot change definitions, so this set
  // stays installed for the whole cascade.
  const DefinitionSet* defs = db_->definitions();
  if (defs == nullptr) return Status::OK();
  for (const Trigger& t : defs->triggers) {
    if (!Matches(t, event)) continue;
    ++fired_;
    std::string action = t.action;
    std::string self = event.subject.ToString();
    size_t pos;
    while ((pos = action.find("$self")) != std::string::npos) {
      action.replace(pos, 5, self);
    }
    chain->push_back(t.name);
    Result<Statement> parsed = ParseStatement(action);
    Result<std::string> r =
        parsed.ok() ? ExecuteInternal(&*parsed, chain) : parsed.status();
    chain->pop_back();
    if (!r.ok()) {
      // A cascade-depth error already names the whole chain; propagate it
      // unwrapped instead of nesting one frame per level.
      if (r.status().message().find("trigger cascade exceeded") !=
          std::string::npos) {
        return r.status();
      }
      return Status::FailedPrecondition("trigger '" + t.name +
                                        "' action failed: " +
                                        r.status().ToString());
    }
  }
  return Status::OK();
}

}  // namespace tchimera

// Tests for the TQL substrate: lexer, parser, type checker (built on the
// paper's typing rules, including the temporal->static coercion of
// Section 6.1) and evaluator/interpreter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "core/db/database.h"
#include "query/interpreter.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/type_checker.h"

namespace tchimera {
namespace {

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("select x from x in person where x.age >= 30 "
                         "and x.name = 'Bob' -- comment\n i7 t42 tnow");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  // select, x, from, x, in, person, where, x, ., age, >=, 30, and, x, .,
  // name, =, 'Bob', i7, t42, tnow, END
  EXPECT_EQ(tokens->size(), 22u);
  EXPECT_TRUE((*tokens)[0].IsKeyword("select"));
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[10].kind, TokenKind::kGe);
  EXPECT_EQ((*tokens)[17].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[17].text, "Bob");
  EXPECT_EQ((*tokens)[18].kind, TokenKind::kOidLit);
  EXPECT_EQ((*tokens)[18].int_value, 7);
  EXPECT_EQ((*tokens)[19].kind, TokenKind::kTimeLit);
  EXPECT_EQ((*tokens)[19].int_value, 42);
  EXPECT_EQ((*tokens)[20].kind, TokenKind::kTimeLit);
  EXPECT_EQ((*tokens)[20].int_value, kNow);
  EXPECT_EQ((*tokens)[21].kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("SELECT Select select");
  ASSERT_TRUE(tokens.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE((*tokens)[i].IsKeyword("select"));
  }
}

TEST(LexerTest, IdentifiersStartingWithIOrT) {
  // `income`, `i7x`, `total` are identifiers, not oid/time literals.
  auto tokens = Tokenize("income i7x total t42abc");
  ASSERT_TRUE(tokens.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*tokens)[i].kind, TokenKind::kIdentifier) << i;
  }
}

TEST(LexerTest, RejectsBadInput) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ยง b").ok());
  EXPECT_FALSE(Tokenize("c'ab'").ok());
}

TEST(ParserTest, ExpressionPrecedence) {
  auto e = ParseExpression("1 + 2 * 3 = 7 and not false or true");
  ASSERT_TRUE(e.ok()) << e.status();
  // or is outermost; and binds tighter; * tighter than +.
  EXPECT_EQ((*e)->ToString(),
            "((((1 + (2 * 3)) = 7) and not false) or true)");
}

TEST(ParserTest, AttrAccessChainsAndAt) {
  auto e = ParseExpression("x.subproject.name @ t40");
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ((*e)->ToString(), "x.subproject.name@t40");
}

TEST(ParserTest, Statements) {
  EXPECT_TRUE(ParseStatement("create project (name: 'IDEA')").ok());
  EXPECT_TRUE(ParseStatement("update i3 set salary = 100").ok());
  EXPECT_TRUE(
      ParseStatement("update i3 set salary = 100 during [10,20]").ok());
  EXPECT_TRUE(ParseStatement("migrate i3 to manager set dependents = 2")
                  .ok());
  EXPECT_TRUE(ParseStatement("delete i3").ok());
  EXPECT_TRUE(ParseStatement("snapshot i3 at 40").ok());
  EXPECT_TRUE(ParseStatement("history i3.salary").ok());
  EXPECT_TRUE(ParseStatement("tick 5").ok());
  EXPECT_TRUE(ParseStatement("advance to 99").ok());
  EXPECT_TRUE(ParseStatement("check").ok());
  EXPECT_TRUE(ParseStatement("show classes").ok());
  EXPECT_TRUE(ParseStatement(
                  "select x, x.salary from x in employee at 30 where "
                  "x.salary > 100")
                  .ok());
  EXPECT_TRUE(ParseStatement(
                  "define class employee under person attributes "
                  "salary: temporal(integer), office: string methods "
                  "raise(integer): employee end")
                  .ok());
}

TEST(ParserTest, Explain) {
  auto r = ParseStatement("explain select x from x in employee");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->kind, Statement::Kind::kExplain);
  ASSERT_NE(r->explain_inner, nullptr);
  EXPECT_EQ(r->explain_inner->kind, Statement::Kind::kSelect);
  EXPECT_TRUE(ParseStatement("explain when i1.a > 0").ok());
  EXPECT_TRUE(ParseStatement("explain tick 3").ok());
  // explain needs a statement and cannot wrap itself.
  EXPECT_FALSE(ParseStatement("explain").ok());
  EXPECT_FALSE(ParseStatement("explain explain select x from x in c").ok());
}

TEST(ParserTest, Rejections) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("select from x in c").ok());
  EXPECT_FALSE(ParseStatement("update 3 set a = 1").ok());  // not an oid
  EXPECT_FALSE(ParseStatement("create").ok());
  EXPECT_FALSE(ParseStatement("select x from x in c where").ok());
  EXPECT_FALSE(ParseStatement("define class c attributes end").ok());
  EXPECT_FALSE(ParseStatement("delete i1 i2").ok());
}

class QueryEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    interp_ = std::make_unique<Interpreter>(&db_);
    ASSERT_TRUE(
        Run("define class person attributes name: temporal(string), "
            "birthyear: integer end")
            .ok());
    ASSERT_TRUE(
        Run("define class employee under person attributes "
            "salary: temporal(integer), office: string end")
            .ok());
    a_ = Run("create employee (name: 'Ann', birthyear: 1970, salary: 100, "
             "office: 'A1')")
             .value();
    b_ = Run("create employee (name: 'Bob', birthyear: 1980, salary: 200, "
             "office: 'B2')")
             .value();
    ASSERT_TRUE(Run("advance to 50").ok());
  }

  Result<std::string> Run(std::string_view stmt) {
    return interp_->Execute(stmt);
  }

  Database db_;
  std::unique_ptr<Interpreter> interp_;
  std::string a_, b_;
};

TEST_F(QueryEndToEndTest, SelectWithCoercedTemporalAttribute) {
  // x.salary coerces the temporal attribute to its value at the query
  // instant (the Section 6.1 snapshot coercion).
  EXPECT_EQ(Run("select x from x in employee where x.salary > 150").value(),
            b_);
  EXPECT_EQ(Run("select x.name from x in employee where x.salary <= 150")
                .value(),
            "'Ann'");
}

TEST_F(QueryEndToEndTest, TemporalSelectAtPastInstant) {
  ASSERT_TRUE(Run("update " + a_ + " set salary = 500").ok());
  // At now, Ann earns 500...
  EXPECT_EQ(
      Run("select x from x in employee where x.salary > 300").value(), a_);
  // ...but AT 10 the query evaluates against the past extension and the
  // past attribute values.
  EXPECT_EQ(Run("select x from x in employee at 10 where x.salary > 300")
                .value(),
            "(no results)");
  // Explicit @ overrides the evaluation instant.
  EXPECT_EQ(Run("select x from x in employee where x.salary @ 10 > 150")
                .value(),
            b_);
}

TEST_F(QueryEndToEndTest, TypeErrorsAreStatic) {
  // Comparing integer with string is rejected by the checker, not at
  // evaluation time.
  Result<std::string> r =
      Run("select x from x in employee where x.salary = 'rich'");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
  // Accessing a static attribute at a past instant is a type error
  // (Section 5.2: past static values are not recorded).
  r = Run("select x from x in employee where x.office @ 10 = 'A1'");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
  // Unknown attribute / class / unbound variable.
  EXPECT_FALSE(Run("select x from x in employee where x.ghost = 1").ok());
  EXPECT_FALSE(Run("select x from x in ghost").ok());
  EXPECT_FALSE(Run("select y.salary from x in employee").ok());
}

TEST_F(QueryEndToEndTest, ExplainPrintsCompiledPlan) {
  Result<std::string> r =
      Run("explain select x.name from x in employee where x.salary > 150");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("compiled select plan"), std::string::npos) << *r;
  EXPECT_NE(r->find("extent: employee"), std::string::npos) << *r;
  r = Run("explain when " + a_ + ".salary > 150");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->find("compiled when plan"), std::string::npos) << *r;
}

TEST_F(QueryEndToEndTest, ExplainReportsFallbackAndTypeErrors) {
  // Non-query verbs do not lower; explain names the reason instead of
  // executing anything (`tick` must NOT advance the clock).
  Result<std::string> r = Run("explain tick 5");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rfind("fallback:", 0), 0u) << *r;
  EXPECT_EQ(Run("show now").value(), "now = 50");
  // A statement that fails the type checker fails identically under
  // explain (lowering type-checks first).
  Result<std::string> bad =
      Run("explain select x from x in employee where x.salary = 'rich'");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
}

TEST_F(QueryEndToEndTest, UpdateDuringAndHistory) {
  ASSERT_TRUE(Run("update " + a_ + " set salary = 110 during [10,19]")
                  .ok());
  EXPECT_EQ(Run("history " + a_ + ".salary").value(),
            "{<[0,9],100>,<[10,19],110>,<[20,now],100>}");
  // DURING on a static attribute is rejected.
  EXPECT_FALSE(
      Run("update " + a_ + " set office = 'C3' during [10,19]").ok());
}

TEST_F(QueryEndToEndTest, SnapshotAndShow) {
  EXPECT_EQ(Run("snapshot " + a_).value(),
            "(birthyear:1970,name:'Ann',office:'A1',salary:100)");
  // Past snapshots are undefined for objects with static attributes.
  EXPECT_FALSE(Run("snapshot " + a_ + " at 10").ok());
  EXPECT_NE(Run("show object " + a_).value().find("lifespan"),
            std::string::npos);
  EXPECT_NE(Run("show class employee").value().find("salary"),
            std::string::npos);
  EXPECT_EQ(Run("show now").value(), "now = 50");
}

TEST_F(QueryEndToEndTest, EqualityPredicates) {
  std::string c =
      Run("create employee (name: 'Ann', birthyear: 1970, salary: 100, "
          "office: 'A1')")
          .value();
  EXPECT_EQ(Run("select x from x in employee where videntical(x, " + a_ +
                ")")
                .value(),
            a_);
  // c was created at t=50 with the same current state as Ann had at
  // creation... but Ann's salary history started at 0, so vequal fails
  // while vinstant compares snapshots at now.
  EXPECT_EQ(Run("select x from x in employee where vinstant(x, " + c +
                ") and not videntical(x, " + c + ")")
                .value(),
            a_);
  EXPECT_EQ(Run("select x from x in employee where vequal(x, " + c +
                ") and not videntical(x, " + c + ")")
                .value(),
            "(no results)");
}

TEST_F(QueryEndToEndTest, MigrationAndCheckThroughTql) {
  ASSERT_TRUE(
      Run("define class manager under employee attributes "
          "dependents: temporal(integer), officialcar: string end")
          .ok());
  ASSERT_TRUE(Run("migrate " + a_ +
                  " to manager set dependents = 2, officialcar = 'sedan'")
                  .ok());
  EXPECT_EQ(Run("select x from x in manager").value(), a_);
  EXPECT_EQ(Run("check").value(), "consistent");
  ASSERT_TRUE(Run("tick").ok());
  ASSERT_TRUE(Run("delete " + b_).ok());
  EXPECT_EQ(Run("check").value(), "consistent");
}

TEST_F(QueryEndToEndTest, WhenComputesValidIntervals) {
  // WHEN: temporal selection over histories, the TQuel-valid-clause
  // analog. Ann earned 100 on [0,9] and 110 on [10,19], then back to 100.
  ASSERT_TRUE(Run("update " + a_ + " set salary = 110 during [10,19]")
                  .ok());
  EXPECT_EQ(Run("when " + a_ + ".salary > 105").value(), "{[10,19]}");
  EXPECT_EQ(Run("when " + a_ + ".salary >= 100").value(), "{[0,50]}");
  EXPECT_EQ(Run("when " + a_ + ".salary > 99999").value(), "{}");
  // Cross-object conditions take both histories into account.
  ASSERT_TRUE(Run("update " + b_ + " set salary = 105 during [15,30]")
                  .ok());
  EXPECT_EQ(
      Run("when " + a_ + ".salary > " + b_ + ".salary").value(),
      "{[15,19]}");
  // Before an object exists its attributes are null: the condition is
  // false there, not an error.
  ASSERT_TRUE(Run("tick").ok());
  std::string late = Run("create employee (salary: 1)").value();
  EXPECT_EQ(Run("when " + late + ".salary = 1").value(), "{[51,51]}");
  // Non-boolean conditions are a static type error.
  Result<std::string> bad = Run("when " + a_ + ".salary + 1");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
}

TEST_F(QueryEndToEndTest, MultiBinderSelect) {
  // Pair queries over the cartesian product of two extents: the setting
  // where the equality predicates of Section 5.3 become useful.
  Result<std::string> pairs = Run(
      "select x, y from x in employee, y in employee where "
      "x.salary < y.salary");
  ASSERT_TRUE(pairs.ok()) << pairs.status();
  EXPECT_EQ(*pairs, a_ + " | " + b_);
  // Self-pairs excluded via identity.
  EXPECT_EQ(Run("select x, y from x in employee, y in employee where "
                "not videntical(x, y) and x.name <> y.name")
                .value()
                .find('\n') != std::string::npos,
            true);  // both orderings appear
  // Duplicate binder names are a static error.
  Result<std::string> dup =
      Run("select x from x in employee, x in person");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kTypeError);
  // Binders range over different classes.
  ASSERT_TRUE(
      Run("define class team attributes lead: person end").ok());
  std::string t = Run("create team (lead: " + a_ + ")").value();
  EXPECT_EQ(Run("select t.lead from t in team, p in person where "
                "videntical(t.lead, p) and p.birthyear < 1975")
                .value(),
            a_);
}

TEST_F(QueryEndToEndTest, DropClassStatement) {
  ASSERT_TRUE(
      Run("define class scratch attributes x: integer end").ok());
  std::string o = Run("create scratch ()").value();
  // Cannot drop while members live.
  EXPECT_FALSE(Run("drop class scratch").ok());
  ASSERT_TRUE(Run("tick").ok());
  ASSERT_TRUE(Run("delete " + o).ok());
  ASSERT_TRUE(Run("tick").ok());
  EXPECT_EQ(Run("drop class scratch").value(), "class scratch dropped");
  // The class lifespan is closed: no new instances.
  EXPECT_FALSE(Run("create scratch ()").ok());
  EXPECT_FALSE(Run("drop class ghost").ok());
}

TEST_F(QueryEndToEndTest, ScriptExecution) {
  Result<std::string> out = interp_->ExecuteScript(
      "tick 1; create person (name: 'Cy', birthyear: 1999); "
      "select x.name from x in person where x.birthyear > 1990");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("'Cy'"), std::string::npos);
  // Scripts stop at the first failing statement.
  EXPECT_FALSE(interp_->ExecuteScript("tick 1; bogus statement").ok());
}

TEST_F(QueryEndToEndTest, BuiltinFunctions) {
  ASSERT_TRUE(
      Run("define class team attributes members: set-of(person), "
          "tags: list-of(string) end")
          .ok());
  std::string t =
      Run("create team (members: {" + a_ + "," + b_ + "}, tags: ['x','y'])")
          .value();
  EXPECT_EQ(Run("select size(x.members) from x in team").value(), "2");
  EXPECT_EQ(Run("select x from x in team where " + a_ + " in x.members")
                .value(),
            t);
  EXPECT_EQ(Run("select defined(x.members) from x in team").value(),
            "true");
  EXPECT_EQ(
      Run("select lifespan(x) from x in team").value(), "[t50,tnow]");
}

// --- statement kinds: the routing table and the peek ----------------------

// True when the engine would journal `text`, decided by the peek the
// server's admission check uses.
bool PeeksJournaled(std::string_view text) {
  Result<Statement::Kind> kind = PeekStatementKind(text);
  return kind.ok() && TraitsOf(*kind).journaled;
}

bool PeeksExclusive(std::string_view text) {
  Result<Statement::Kind> kind = PeekStatementKind(text);
  return kind.ok() && TraitsOf(*kind).exclusive;
}

TEST(StatementKindTest, TraitsTableReproducesTheRoutingLists) {
  using Kind = Statement::Kind;
  const std::vector<Kind> reads = {Kind::kSelect, Kind::kSnapshot,
                                   Kind::kHistory, Kind::kWhen,
                                   Kind::kShow,   Kind::kExplain};
  const std::vector<Kind> exclusive = {Kind::kDefineClass, Kind::kDropClass,
                                       Kind::kCreateIndex, Kind::kDropIndex,
                                       Kind::kTrigger,     Kind::kConstraint};
  const std::vector<Kind> plain_writes = {Kind::kCreate, Kind::kUpdate,
                                          Kind::kMigrate, Kind::kDelete,
                                          Kind::kTick,   Kind::kAdvance};
  auto in = [](const std::vector<Kind>& v, Kind k) {
    return std::find(v.begin(), v.end(), k) != v.end();
  };
  for (int i = 0; i <= static_cast<int>(Kind::kConstraint); ++i) {
    const Kind k = static_cast<Kind>(i);
    SCOPED_TRACE(i);
    EXPECT_EQ(TraitsOf(k).read, in(reads, k));
    EXPECT_EQ(TraitsOf(k).exclusive, in(exclusive, k));
    EXPECT_EQ(TraitsOf(k).journaled,
              in(exclusive, k) || in(plain_writes, k));
  }
  // `check` runs on the write path (ActiveDatabase adds the constraints)
  // and is never journaled.
  EXPECT_FALSE(TraitsOf(Kind::kCheck).read);
  EXPECT_FALSE(TraitsOf(Kind::kCheck).journaled);
}

TEST(StatementKindTest, PeekIsTokenExact) {
  EXPECT_TRUE(PeeksJournaled("delete i1"));
  EXPECT_TRUE(PeeksJournaled("  Update i1 set a = 1"));
  EXPECT_TRUE(PeeksJournaled("tick"));
  EXPECT_TRUE(PeeksJournaled("-- raise\nupdate i1 set a = 2"));
  EXPECT_TRUE(PeeksJournaled("update i1\n  set a = 2"));
  // Index DDL journals like any other mutation, and needs the exclusive
  // writer (its build scans every object shard).
  EXPECT_TRUE(PeeksJournaled("create index iv on item (v)"));
  EXPECT_TRUE(PeeksExclusive("create index iv on item (v)"));
  EXPECT_TRUE(PeeksExclusive("  CREATE index iv on item lifespan"));
  EXPECT_TRUE(PeeksExclusive("drop index iv"));
  // An object of a class named `index` is a plain create.
  EXPECT_TRUE(PeeksJournaled("create index (v: 1)"));
  EXPECT_FALSE(PeeksExclusive("create index (v: 1)"));
  // Trigger and constraint definitions are schema changes.
  EXPECT_TRUE(PeeksExclusive("trigger t on create do tick"));
  EXPECT_TRUE(PeeksExclusive("  TRIGGER t on create do tick"));
  EXPECT_TRUE(PeeksJournaled("  Constraint c on emp always x.v > 0"));
  EXPECT_TRUE(PeeksExclusive("-- c\ntrigger t on create do tick"));
  // Prefix look-alikes start no statement at all.
  EXPECT_FALSE(PeeksJournaled("deletion_report from x in c"));
  EXPECT_FALSE(PeeksJournaled("ticket from x in c"));
  EXPECT_FALSE(PeeksJournaled("updates from x in c"));
  EXPECT_FALSE(PeeksJournaled("created from x in c"));
  EXPECT_FALSE(PeeksJournaled("triggers t on create do tick"));
  EXPECT_FALSE(PeeksJournaled(""));
  EXPECT_FALSE(PeeksJournaled("   "));
  EXPECT_FALSE(PeeksJournaled("-- only a comment"));
  EXPECT_FALSE(PeeksJournaled("select x from x in c"));
  EXPECT_FALSE(PeeksJournaled("-- c\nselect x from x in c"));
  EXPECT_FALSE(PeeksJournaled("check"));
  // The peek reads three tokens; what follows is never lexed.
  EXPECT_TRUE(PeeksJournaled("update i1 set $ ' unterminated"));
}

// Every double-quoted C++ string literal in `path` (adjacent literals
// concatenated, the common escapes decoded; raw strings skipped).
std::vector<std::string> StringLiterals(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string src = buffer.str();
  std::vector<std::string> out;
  bool joinable = false;  // only whitespace since the last literal
  for (size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      i = src.find('\n', i);
      if (i == std::string::npos) break;
      continue;
    }
    if (c == '\'') {  // a char literal such as '"'
      i = src.find('\'', i + (src[i + 1] == '\\' ? 3 : 2));
      if (i == std::string::npos) break;
      joinable = false;
      continue;
    }
    if (c == '"' && i > 0 && src[i - 1] == 'R') {
      i = src.find(")\"", i);
      if (i == std::string::npos) break;
      ++i;
      joinable = false;
      continue;
    }
    if (c != '"') {
      if (!std::isspace(static_cast<unsigned char>(c))) joinable = false;
      continue;
    }
    std::string lit;
    for (++i; i < src.size() && src[i] != '"'; ++i) {
      if (src[i] != '\\' || i + 1 >= src.size()) {
        lit.push_back(src[i]);
        continue;
      }
      const char e = src[++i];
      lit.push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
    }
    if (joinable && !out.empty()) {
      out.back() += lit;
    } else {
      out.push_back(lit);
    }
    joinable = true;
  }
  return out;
}

// For every statement of the example scripts and programs and of the TQL
// in the query, VM and concurrency tests, the peek's kind is the parse's.
TEST(StatementKindTest, PeekAgreesWithParseOnEveryScriptStatement) {
  const std::filesystem::path root = TCHIMERA_SOURCE_DIR;
  std::vector<std::string> texts;
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "examples" / "tql")) {
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    texts.push_back(buffer.str());
  }
  std::vector<std::filesystem::path> sources = {
      root / "tests" / "query_test.cc", root / "tests" / "vm_test.cc",
      root / "tests" / "concurrency_test.cc"};
  for (const auto& entry : std::filesystem::directory_iterator(root /
                                                               "examples")) {
    if (entry.path().extension() == ".cpp") sources.push_back(entry.path());
  }
  for (const auto& source : sources) {
    for (std::string& lit : StringLiterals(source.string())) {
      texts.push_back(std::move(lit));
    }
  }
  size_t checked = 0;
  for (const std::string& text : texts) {
    Result<std::vector<Statement>> script = ParseScript(text);
    if (!script.ok()) continue;  // not TQL, or deliberately broken
    for (const Statement& stmt : *script) {
      Result<Statement::Kind> peeked = PeekStatementKind(stmt.text);
      ASSERT_TRUE(peeked.ok()) << stmt.text << ": " << peeked.status();
      EXPECT_EQ(*peeked, stmt.kind) << stmt.text;
      Result<Statement> alone = ParseStatement(stmt.text);
      ASSERT_TRUE(alone.ok()) << stmt.text << ": " << alone.status();
      EXPECT_EQ(alone->kind, stmt.kind) << stmt.text;
      EXPECT_EQ(alone->text, stmt.text);
      ++checked;
    }
  }
  EXPECT_GT(checked, 300u);
}

// Comments and newlines are whitespace; the canonical text drops the one
// and writes a literal's raw newline as an escape.
TEST(StatementKindTest, CanonicalTextIsOneLine) {
  Result<Statement> stmt = ParseStatement(
      "-- lead\n  update i1\n\tset note =  'a\nb' -- trail\n during [1,2] ;");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->kind, Statement::Kind::kUpdate);
  EXPECT_EQ(stmt->text, "update i1 set note = 'a\\nb' during [1,2] ;");
  Result<Statement> again = ParseStatement(stmt->text);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->text, stmt->text);
  EXPECT_EQ(again->update->value->literal.AsString(), "a\nb");
  // A definition keeps its own grammar: the parse only finds its extent.
  Result<Statement> def = ParseStatement(
      "trigger t\n  on update of emp.salary -- audit\n  do update $self "
      "set v = 1");
  ASSERT_TRUE(def.ok()) << def.status();
  EXPECT_EQ(def->kind, Statement::Kind::kTrigger);
  EXPECT_EQ(def->text,
            "trigger t on update of emp.salary do update $self set v = 1");
}

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  // Statements assembled from random fragments must always yield a clean
  // parse or a clean error — never a crash or a hang.
  std::mt19937_64 rng(GetParam());
  const char* fragments[] = {
      "select", "from",   "in",     "where",  "update", "set",    "i1",
      "t42",    "now",    "(",      ")",      "{",      "}",      "[",
      "]",      ",",      ":",      ".",      "@",      "=",      "<>",
      "x",      "person", "salary", "'str'",  "42",     "3.5",    "and",
      "or",     "not",    "define", "class",  "end",    "create", "null",
      "during", "migrate","to",     "check",  "tick",   "+",      "*",
      "vdeep",  "rec",    "size",   ";",      "-",      "<",      ">=",
  };
  std::uniform_int_distribution<size_t> pick(0,
                                             std::size(fragments) - 1);
  std::uniform_int_distribution<int> len(0, 24);
  for (int round = 0; round < 500; ++round) {
    std::string soup;
    int n = len(rng);
    for (int i = 0; i < n; ++i) {
      soup += fragments[pick(rng)];
      soup += ' ';
    }
    Result<Statement> r = ParseStatement(soup);  // ok or error, no crash
    if (r.ok()) {
      Result<Statement::Kind> peeked = PeekStatementKind(soup);
      ASSERT_TRUE(peeked.ok()) << soup << ": " << peeked.status();
      EXPECT_EQ(*peeked, r->kind) << soup;
    }
    Result<std::vector<Statement>> rs = ParseScript(soup);
    (void)rs;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Values(31, 62, 93, 124));

}  // namespace
}  // namespace tchimera

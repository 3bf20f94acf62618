// Differential tests for the compiled query pipeline (query/lower.h +
// query/vm.h): every lowerable statement must produce bit-identical
// results on the batch VM and the tree-walking evaluator — including
// WHICH rows error (the short-circuit masks) — plus plan-cache
// behaviour (hits, DDL invalidation) through Engine/Session.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/db/database.h"
#include "query/interpreter.h"
#include "query/lower.h"
#include "query/parser.h"
#include "query/session.h"
#include "query/vm.h"

namespace tchimera {
namespace {

// Lowers and runs `text` on the VM. A fallback is surfaced as an error so
// differential tests notice when a statement they expect to compile
// stops compiling.
Result<std::string> RunCompiled(const std::string& text,
                                const Database& db) {
  TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(text));
  TCH_ASSIGN_OR_RETURN(LowerOutcome outcome, LowerStatement(&stmt, db));
  if (!outcome.compiled()) {
    return Status::FailedPrecondition("fallback: " +
                                      outcome.fallback_reason);
  }
  const ExecProgram& prog = outcome.plan->program;
  if (outcome.plan->kind == LoweredPlan::Kind::kSelect) {
    TCH_ASSIGN_OR_RETURN(std::vector<SelectRow> rows,
                         RunSelect(prog, db));
    return FormatSelectRows(rows);
  }
  TCH_ASSIGN_OR_RETURN(IntervalSet held, RunWhen(prog, db));
  return held.ToString();
}

class VmDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Interpreter interp(&db_);
    auto run = [&](const std::string& s) {
      auto r = interp.Execute(s);
      ASSERT_TRUE(r.ok()) << s << ": " << r.status();
    };
    run("define class person attributes name: temporal(string), "
        "birthyear: integer end");
    run("define class employee under person attributes "
        "salary: temporal(integer), office: string end");
    Result<std::string> a =
        interp.Execute("create employee (name: 'Ann', birthyear: 1970, "
                       "salary: 100, office: 'A1')");
    ASSERT_TRUE(a.ok());
    a_ = *a;
    Result<std::string> b =
        interp.Execute("create employee (name: 'Bob', birthyear: 1980, "
                       "salary: 200, office: 'B2')");
    ASSERT_TRUE(b.ok());
    b_ = *b;
    // Multi-segment histories: salary changes mid-life, one update is
    // retroactive (splits segments), names change too.
    run("advance to 20");
    run("update " + a_ + " set salary = 150");
    run("update " + b_ + " set name = 'Rob'");
    run("advance to 40");
    run("update " + a_ + " set salary = 90 during [5,9]");
    run("update " + b_ + " set salary = 300");
    Result<std::string> c =
        interp.Execute("create employee (name: 'Cyd', birthyear: 1990, "
                       "salary: 50, office: 'C3')");
    ASSERT_TRUE(c.ok());
    c_ = *c;
    run("advance to 60");
  }

  // The core differential assertion: same success/failure, same output
  // text, same error (code and message) on both paths.
  void ExpectSame(const std::string& text) {
    Interpreter interp(&db_);
    Result<std::string> walked = interp.Execute(text);
    Result<std::string> compiled = RunCompiled(text, db_);
    if (walked.ok()) {
      ASSERT_TRUE(compiled.ok())
          << text << "\n  tree-walker: " << *walked
          << "\n  vm error: " << compiled.status().ToString();
      EXPECT_EQ(*walked, *compiled) << text;
    } else {
      ASSERT_FALSE(compiled.ok())
          << text << "\n  tree-walker error: "
          << walked.status().ToString()
          << "\n  vm result: " << *compiled;
      EXPECT_EQ(walked.status().code(), compiled.status().code()) << text;
      EXPECT_EQ(walked.status().ToString(), compiled.status().ToString())
          << text;
    }
  }

  Database db_;
  std::string a_, b_, c_;
};

TEST_F(VmDifferentialTest, SelectBattery) {
  const std::string queries[] = {
      "select x from x in employee",
      "select x from x in person",
      "select x.name from x in employee where x.salary > 120",
      "select x, x.salary from x in employee where x.salary <= 150",
      "select x.name, x.office from x in employee",
      "select x from x in employee at 10 where x.salary > 95",
      "select x from x in employee at 3 where x.salary > 95",
      "select x from x in employee where x.salary @ 7 < 100",
      "select x from x in employee where x.salary @ 25 >= 150",
      "select x.name @ 10 from x in employee",
      "select x from x in employee where x.birthyear + 10 < 1985",
      "select x from x in employee where x.salary * 2 > 250 and "
      "x.birthyear < 1985",
      "select x from x in employee where x.salary > 100 or "
      "x.office = 'C3'",
      "select x from x in employee where not (x.salary > 100)",
      "select x from x in employee where x.name = 'Rob'",
      "select x from x in employee where 1 + 1 = 2",
      "select x from x in employee where false",
      "select x from x in employee where x = " + a_,
  };
  for (const std::string& q : queries) ExpectSame(q);
}

TEST_F(VmDifferentialTest, WhenBattery) {
  const std::string queries[] = {
      "when " + a_ + ".salary > 95",
      "when " + a_ + ".salary > 95 and " + b_ + ".salary < 250",
      "when " + a_ + ".salary + " + b_ + ".salary > 300",
      "when " + a_ + ".name = 'Ann' or " + c_ + ".salary = 50",
      "when not (" + a_ + ".salary = 100)",
      "when " + a_ + ".salary > 95 during [3,30]",
      "when " + a_ + ".salary > 95 during [0,now]",
      "when " + b_ + ".salary >= 300 during [35,now]",
      "when true",
      "when false",
  };
  for (const std::string& q : queries) ExpectSame(q);
}

TEST_F(VmDifferentialTest, ShortCircuitMasksErrorsIdentically) {
  // The masked rhs must evaluate over exactly the rows the tree-walker
  // reaches: rows short-circuited away never see the division.
  ExpectSame("select x from x in employee where false and 1 / 0 = 1");
  ExpectSame("select x from x in employee where true or 1 / 0 = 1");
  // Bob (1980) would divide by zero; the conjunction masks him out.
  ExpectSame("select x from x in employee where x.birthyear < 1979 and "
             "100 / (x.birthyear - 1980) < 0");
  // Here Ann (1970) reaches the division by zero on both paths.
  ExpectSame("select x from x in employee where x.birthyear < 1979 and "
             "100 / (x.birthyear - 1970) > 0");
  // Pure-but-erroring subtrees are not folded away; they fire only when
  // a row reaches them.
  ExpectSame("select x from x in employee where x.salary > 1000 and "
             "1 / 0 = 1");
}

TEST_F(VmDifferentialTest, RandomizedPredicates) {
  // Seeded grammar walk over int/bool expressions; every generated
  // predicate must agree between the two paths (including the ones that
  // error — e.g. a division whose divisor hits zero on some row).
  std::mt19937 rng(20260809);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  std::function<std::string(int)> int_expr = [&](int depth) -> std::string {
    if (depth <= 0 || pick(3) == 0) {
      switch (pick(4)) {
        case 0: return "x.birthyear";
        case 1: return "x.salary";
        case 2: return std::to_string(pick(400) - 50);
        default: return "x.salary @ " + std::to_string(pick(60));
      }
    }
    static const char* ops[] = {" + ", " - ", " * ", " / "};
    return "(" + int_expr(depth - 1) + ops[pick(4)] +
           int_expr(depth - 1) + ")";
  };
  std::function<std::string(int)> bool_expr =
      [&](int depth) -> std::string {
    if (depth <= 0 || pick(4) == 0) {
      static const char* cmps[] = {" = ", " <> ", " < ", " <= ", " > ",
                                   " >= "};
      return "(" + int_expr(1) + cmps[pick(6)] + int_expr(1) + ")";
    }
    switch (pick(3)) {
      case 0: return "(" + bool_expr(depth - 1) + " and " +
                     bool_expr(depth - 1) + ")";
      case 1: return "(" + bool_expr(depth - 1) + " or " +
                     bool_expr(depth - 1) + ")";
      default: return "(not " + bool_expr(depth - 1) + ")";
    }
  };
  for (int i = 0; i < 150; ++i) {
    ExpectSame("select x, x.salary from x in employee where " +
               bool_expr(3));
  }
  for (int i = 0; i < 100; ++i) {
    std::string cond = bool_expr(2);
    // Rebind the free variable to a literal object for WHEN.
    size_t pos;
    while ((pos = cond.find("x.")) != std::string::npos) {
      cond.replace(pos, 1, pick(2) == 0 ? a_ : b_);
    }
    ExpectSame("when " + cond);
  }
}

TEST_F(VmDifferentialTest, SessionExecuteMatchesTheTreeWalker) {
  // The same statements through Session (the compiled path) and through a
  // tree-walking Interpreter over the same engine snapshot.
  Engine engine;
  Session session = engine.OpenSession();
  for (const char* s :
       {"define class p attributes v: temporal(integer) end",
        "create p (v: 1)", "advance to 9", "update i1 set v = 5"}) {
    Result<std::string> r = session.Execute(s);
    ASSERT_TRUE(r.ok()) << s << ": " << r.status();
  }
  ReadSnapshot snap = engine.OpenSnapshot();
  // Read-only statements only call const Database members.
  Interpreter walker(const_cast<Database*>(&snap.db()));
  const std::string queries[] = {
      "select x, x.v from x in p where x.v > 0",
      "select x from x in p where x.v @ 3 = 1",
      "when i1.v > 2",
      "when i1.v > 2 during [0,5]",
  };
  for (const std::string& q : queries) {
    Result<std::string> compiled = session.Execute(q);
    Result<std::string> walked = walker.Execute(q);
    ASSERT_TRUE(compiled.ok()) << q << ": " << compiled.status();
    ASSERT_TRUE(walked.ok()) << q << ": " << walked.status();
    EXPECT_EQ(*compiled, *walked) << q;
  }
}

// The scan kernel's per-row paths over a larger, mixed database: three
// classes with different attribute layouts in one extent (the slot hint
// misses and re-finds), Section 5.2 migrations that leave closed temporal
// attributes behind, null and dangling reference bases, explicit `@ t`
// projections, and an extent of more than one 256-row batch.
class VmScanKernelTest : public VmDifferentialTest {
 protected:
  void SetUp() override {
    VmDifferentialTest::SetUp();
    Interpreter interp(&db_);
    auto run = [&](const std::string& s) {
      auto r = interp.Execute(s);
      ASSERT_TRUE(r.ok()) << s << ": " << r.status();
    };
    run("define class manager under employee attributes "
        "level: temporal(integer) end");
    run("define class project attributes name: string, "
        "subproject: project end");
    // i4 .. i303, cycling person / employee / manager; birth years are
    // unique, so a predicate can single out one row past the first batch.
    for (int i = 0; i < kMembers; ++i) {
      const std::string n = std::to_string(i);
      const std::string common =
          "name: 'm" + n + "', birthyear: " + std::to_string(1500 + i);
      switch (i % 3) {
        case 0:
          run("create person (" + common + ")");
          break;
        case 1:
          run("create employee (" + common + ", salary: " + n +
              ", office: 'o" + std::to_string(i % 7) + "')");
          break;
        default:
          run("create manager (" + common + ", salary: " +
              std::to_string(1000 + i) + ", office: 'x', level: " +
              std::to_string(i % 4) + ")");
          break;
      }
    }
    run("advance to 70");
    for (int i = 1; i < kMembers; i += 5) {
      if (i % 3 == 0) continue;
      run("update " + Member(i) + " set salary = " +
          std::to_string(i * 3));
    }
    run("advance to 80");
    for (int i = 1; i < kMembers; i += 3) {
      if (i % 9 == 1) {
        // Generalization: the employee keeps its salary history, closed
        // at 79, and loses its static office (Section 5.2).
        run("migrate " + Member(i) + " to person");
      } else if (i % 9 == 4) {
        run("migrate " + Member(i) + " to manager set level = 7");
      }
    }
    for (int i = 0; i < kMembers; i += 11) {
      run("update " + Member(i) + " set name = 'r" + std::to_string(i) +
          "'");
    }
    run("create project (name: 'root')");
    run("create project (name: 'child', subproject: i304)");
    run("create project (name: 'orphan')");
    run("create project (name: 'doomed')");
    run("create project (name: 'dangler', subproject: i307)");
    run("create project (name: 'grandchild', subproject: i305)");
    run("advance to 90");
    // Erase i307 outright: the dangler's reference no longer resolves.
    ASSERT_TRUE(db_.QuarantineObject(Oid{307}).ok());
  }

  static constexpr int kMembers = 300;
  // The oid of the i-th object created above.
  static std::string Member(int i) { return "i" + std::to_string(4 + i); }
};

TEST_F(VmScanKernelTest, MixedLayoutsMissAndRefindTheSlotHint) {
  const std::string queries[] = {
      "select x.name, x.birthyear from x in person",
      "select x, x.name from x in person where x.birthyear < 1600",
      "select x.name from x in person at 65",
      "select x.name, x.salary, x.level from x in manager",
      "select x.name, x.salary, x.office from x in employee",
      "select x.level, x.name from x in employee where x.salary > 500",
  };
  for (const std::string& q : queries) ExpectSame(q);
}

TEST_F(VmScanKernelTest, MigratedObjectsKeepClosedTemporalAttributes) {
  const std::string queries[] = {
      "select x, x.salary, x.office from x in employee at 75",
      "select x.salary from x in employee at 75 where x.salary > 100",
      "select x, x.name from x in employee at 75 where x.office = null",
      "select x.level from x in manager at 85",
  };
  for (const std::string& q : queries) ExpectSame(q);
  // i5 left employee at 80: at 75 it is still a member, its salary comes
  // from the closed history and its dropped static office is null.
  Result<std::string> rows = RunCompiled(queries[0], db_);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_NE(rows->find("i5 | 3 | null"), std::string::npos) << *rows;
}

TEST_F(VmScanKernelTest, NullAndDanglingReferenceBases) {
  const std::string queries[] = {
      "select x.name, x.subproject.name from x in project "
      "where x.name <> 'dangler'",
      "select x from x in project where x.subproject.name = 'root'",
      "select x.subproject.name @ 1 from x in project "
      "where x.name <> 'dangler'",
      // Two hops: the register that held the binder is reused for the
      // first hop's oids, so the second hop must not take the binder's
      // objects.
      "select x.subproject.subproject.name from x in project "
      "where x.name <> 'dangler'",
      // The dangling base errors on both paths, with the same message.
      "select x.name, x.subproject.name from x in project",
      "select x from x in project where x.subproject.name <> 'root'",
  };
  for (const std::string& q : queries) ExpectSame(q);
  Result<std::string> nulls = RunCompiled(queries[0], db_);
  ASSERT_TRUE(nulls.ok()) << nulls.status();
  EXPECT_EQ(*nulls,
            "'root' | null\n'child' | 'root'\n'orphan' | null\n"
            "'grandchild' | 'child'");
  Result<std::string> dangling = RunCompiled(queries[4], db_);
  ASSERT_FALSE(dangling.ok());
  EXPECT_EQ(dangling.status().ToString(),
            "NotFound: dangling reference i307");
}

TEST_F(VmScanKernelTest, ExplicitInstantProjections) {
  const std::string queries[] = {
      "select x.name @ 65, x.salary @ 65 from x in employee",
      "select x from x in employee where x.salary @ 75 > x.salary",
      "select x.salary @ 0, x.salary from x in employee at 75",
      "select x.name @ 85 from x in person at 65",
  };
  for (const std::string& q : queries) ExpectSame(q);
}

TEST_F(VmScanKernelTest, ExtentCrossesTheBatchBoundary) {
  const std::string queries[] = {
      "select x, x.birthyear, x.name from x in person",
      // Only row 280 (birthyear 1780) divides by zero: an error past the
      // first batch, and a mask that keeps the division away from it.
      "select x from x in person where 100 / (x.birthyear - 1780) > 0",
      "select x from x in person where x.birthyear <> 1780 and "
      "100 / (x.birthyear - 1780) > 0",
      "select x.name from x in person where x.birthyear >= 1750",
  };
  for (const std::string& q : queries) ExpectSame(q);
  // The person extent really spans two batches.
  Result<std::string> all = RunCompiled("select x from x in person", db_);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_GT(std::count(all->begin(), all->end(), '\n') + 1,
            static_cast<std::ptrdiff_t>(kVmBatchSize));
}

TEST(PlanCacheTest, NormalizePlanKey) {
  // Comments stripped, whitespace collapsed, trimmed...
  EXPECT_EQ(NormalizePlanKey("  select   x -- pick x\n from x in p  "),
            "select x from x in p");
  // ...but quoted literals are preserved byte-for-byte (spacing and
  // comment-looking content included), and case is significant.
  EXPECT_EQ(NormalizePlanKey("select 'a  -- b'  from x in p"),
            "select 'a  -- b' from x in p");
  EXPECT_NE(NormalizePlanKey("select X from x in p"),
            NormalizePlanKey("select x from x in p"));
}

TEST(PlanCacheTest, NormalizePlanKeyUnterminatedLiteral) {
  // An unterminated quoted literal runs to end-of-statement, so every
  // byte after the quote — trailing spaces included — is literal content.
  // The final trim must not eat those bytes: `select 'ab` and
  // `select 'ab ` are different (both invalid) statements, and colliding
  // keys would let one statement's negative cache entry answer for the
  // other.
  EXPECT_NE(NormalizePlanKey("select 'ab"), NormalizePlanKey("select 'ab "));
  EXPECT_NE(NormalizePlanKey("select 'ab"),
            NormalizePlanKey("select 'ab   "));
  // Same collision through a trailing backslash: the escape consumes the
  // final space into the (unterminated) literal, which the trim then
  // used to strip.
  EXPECT_NE(NormalizePlanKey("select 'a\\"),
            NormalizePlanKey("select 'a\\ "));
  // Terminated literals still trim trailing whitespace outside the quote.
  EXPECT_EQ(NormalizePlanKey("select 'ab'  "), "select 'ab'");
  // And an escaped quote does not terminate the literal — the bytes
  // after it stay significant.
  EXPECT_NE(NormalizePlanKey("select 'a\\'"),
            NormalizePlanKey("select 'a\\' "));
}

TEST(PlanCacheTest, HitsAndDdlInvalidation) {
  Engine engine;
  Session s = engine.OpenSession();
  ASSERT_TRUE(
      s.Execute("define class p attributes v: temporal(integer) end").ok());
  ASSERT_TRUE(s.Execute("create p (v: 7)").ok());

  const std::string q = "select x from x in p where x.v > 0";
  Result<std::string> first = s.Execute(q);
  ASSERT_TRUE(first.ok()) << first.status();
  PlanCache::Stats stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);

  // Normalization makes the spaced/commented spelling the same plan.
  Result<std::string> second =
      s.Execute("select   x from x in p -- cached\n where x.v > 0");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // DDL bumps the schema version: the cached plan is stale and must be
  // recompiled (counted as an invalidation + a miss), and the query
  // still answers correctly.
  ASSERT_TRUE(
      s.Execute("define class q attributes w: integer end").ok());
  Result<std::string> third = s.Execute(q);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*first, *third);
  stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
}

TEST(PlanCacheTest, NegativeEntriesCacheFallbacks) {
  Engine engine;
  Session s = engine.OpenSession();
  ASSERT_TRUE(
      s.Execute("define class p attributes v: integer end").ok());
  ASSERT_TRUE(s.Execute("create p (v: 1)").ok());
  // A cartesian product does not lower; the session tree-walks it and
  // remembers the fallback so the next execution skips re-lowering.
  const std::string q = "select x, y from x in p, y in p";
  Result<std::string> r1 = s.Execute(q);
  ASSERT_TRUE(r1.ok()) << r1.status();
  Result<std::string> r2 = s.Execute(q);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
  PlanCache::Stats stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(LowerFallbackTest, ReasonsAreReported) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(
      interp.Execute("define class p attributes v: integer end").ok());
  Statement multi =
      ParseStatement("select x from x in p, y in p").value();
  Result<LowerOutcome> outcome = LowerStatement(&multi, db);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->compiled());
  EXPECT_NE(outcome->fallback_reason.find("multi-binder"),
            std::string::npos)
      << outcome->fallback_reason;

  Statement tick = ParseStatement("tick 1").value();
  outcome = LowerStatement(&tick, db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->compiled());

  // Type errors are NOT fallbacks: they propagate as the same error the
  // interpreter reports.
  Statement bad =
      ParseStatement("select x from x in p where x.v = 'no'").value();
  Result<LowerOutcome> err = LowerStatement(&bad, db);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kTypeError);
}

// --- temporal secondary indexes: planner + differential correctness ---

// A class with an extent large enough (>= 64 rows) for the cost-based
// planner to consider an index probe, with multi-segment histories on a
// few objects so probes exercise temporal postings.
class IndexedSelectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Interpreter interp(&db_);
    auto run = [&](const std::string& s) {
      auto r = interp.Execute(s);
      ASSERT_TRUE(r.ok()) << s << ": " << r.status();
    };
    run("define class item attributes v: temporal(integer), "
        "tag: string end");
    for (int i = 0; i < 80; ++i) {
      run("create item (v: " + std::to_string(i % 20) + ", tag: 't" +
          std::to_string(i % 5) + "')");
    }
    run("advance to 10");
    run("update i3 set v = 100");
    run("update i7 set v = 100 during [2,5]");
    run("update i11 set v = 5");
    run("advance to 30");
  }

  Result<std::string> Walk(const std::string& q) {
    Interpreter interp(&db_);
    return interp.Execute(q);
  }

  Status CreateIndex() {
    Interpreter interp(&db_);
    return interp.Execute("create index idx_v on item (v)").status();
  }

  Database db_;
};

TEST_F(IndexedSelectTest, PlannerChoosesIndexAndExplainsIt) {
  ASSERT_TRUE(CreateIndex().ok());
  auto lower = [&](const std::string& q) {
    Statement stmt = ParseStatement(q).value();
    Result<LowerOutcome> outcome = LowerStatement(&stmt, db_);
    EXPECT_TRUE(outcome.ok()) << q << ": " << outcome.status();
    EXPECT_TRUE(outcome->compiled()) << q;
    return outcome->plan->program;
  };

  // A selective equality on the leftmost conjunct probes the index; the
  // decision and its estimates are visible in explain.
  ExecProgram p = lower("select x from x in item where x.v = 5");
  ASSERT_TRUE(p.access.has_value());
  EXPECT_EQ(p.access->names[0], "idx_v");
  EXPECT_NE(p.ToString().find("access: index idx_v"), std::string::npos)
      << p.ToString();

  // Flipped orientation still matches (literal on the left).
  EXPECT_TRUE(lower("select x from x in item where 5 = x.v")
                  .access.has_value());
  // Only the LEFTMOST conjunct of the AND spine may drive the probe.
  EXPECT_TRUE(
      lower("select x from x in item where x.v = 5 and x.tag = 't1'")
          .access.has_value());
  p = lower("select x from x in item where x.tag = 't1' and x.v = 5");
  EXPECT_FALSE(p.access.has_value());
  EXPECT_NE(p.access_note.find("no value index on 'tag'"),
            std::string::npos)
      << p.access_note;

  // Refused shapes fall back to the scan, with the reason recorded.
  p = lower("select x from x in item where x.v <> 5");
  EXPECT_FALSE(p.access.has_value());
  p = lower("select x from x in item where x.v @ 4 = 5");
  EXPECT_FALSE(p.access.has_value());
  p = lower("select x from x in item");
  EXPECT_FALSE(p.access.has_value());
  EXPECT_EQ(p.access_note, "no where clause");
  // A non-selective range (matches nearly every row) is rejected by the
  // cost model, not by shape.
  p = lower("select x from x in item where x.v >= 0");
  EXPECT_FALSE(p.access.has_value());
  EXPECT_NE(p.access_note.find("not selective"), std::string::npos)
      << p.access_note;
  EXPECT_NE(p.ToString().find("access: scan"), std::string::npos);
}

TEST_F(IndexedSelectTest, IndexScanAndTreeWalkerReturnIdenticalRows) {
  const std::string queries[] = {
      "select x from x in item where x.v = 5",
      "select x, x.v from x in item where x.v = 5",
      "select x from x in item where 5 = x.v",
      "select x from x in item where x.v < 2",
      "select x from x in item where x.v <= 1",
      "select x from x in item where x.v > 17",
      "select x from x in item where x.v >= 100",
      "select x from x in item where x.v = 100",
      "select x from x in item at 4 where x.v = 100",
      "select x from x in item at 4 where x.v = 3",
      "select x.tag from x in item where x.v = 19",
      "select x from x in item where x.v = 5 and x.tag = 't1'",
      // Probe survivors reach the second conjunct on both paths: here it
      // divides by zero on exactly the v = 5 rows (identical error), and
      // on the next one it never does (identical rows).
      "select x from x in item where x.v = 5 and 1 / (x.v - 5) = 1",
      "select x from x in item where x.v = 5 and 100 / (x.v - 6) < 0",
      "select x from x in item where x.v = -1",
  };
  // Capture the compiled-scan results before any index exists.
  std::vector<Result<std::string>> scan;
  for (const std::string& q : queries) scan.push_back(RunCompiled(q, db_));
  ASSERT_TRUE(CreateIndex().ok());
  for (size_t i = 0; i < std::size(queries); ++i) {
    const std::string& q = queries[i];
    Result<std::string> indexed = RunCompiled(q, db_);
    Result<std::string> walked = Walk(q);
    ASSERT_EQ(scan[i].ok(), indexed.ok()) << q;
    ASSERT_EQ(walked.ok(), indexed.ok()) << q;
    if (indexed.ok()) {
      EXPECT_EQ(*scan[i], *indexed) << q;
      EXPECT_EQ(*walked, *indexed) << q;
    } else {
      EXPECT_EQ(scan[i].status().ToString(), indexed.status().ToString())
          << q;
      EXPECT_EQ(walked.status().ToString(), indexed.status().ToString())
          << q;
    }
  }
}

TEST(PlanCacheTest, IndexDdlInvalidatesCachedPlans) {
  Engine engine;
  Session s = engine.OpenSession();
  ASSERT_TRUE(
      s.Execute("define class p attributes v: temporal(integer) end").ok());
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(
        s.Execute("create p (v: " + std::to_string(100 + i) + ")").ok());
  }
  ASSERT_TRUE(s.Execute("update i1 set v = 1").ok());

  const std::string q = "select x from x in p where x.v = 1";
  Result<std::string> scanned = s.Execute(q);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  ASSERT_TRUE(s.Execute(q).ok());
  PlanCache::Stats stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // Index DDL bumps the schema version: the cached scan plan (compiled
  // before the index existed) must be invalidated and recompiled, or the
  // session would keep scanning forever.
  ASSERT_TRUE(s.Execute("create index pv on p (v)").ok());
  Result<std::string> indexed = s.Execute(q);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_EQ(*scanned, *indexed);
  stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
  // The recompiled plan really takes the index path.
  Result<std::string> explained = s.Execute("explain " + q);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained->find("access: index pv"), std::string::npos)
      << *explained;

  // Dropping the index invalidates again — a plan probing a dead index
  // would be unsound, not just slow.
  ASSERT_TRUE(s.Execute("drop index pv").ok());
  Result<std::string> after_drop = s.Execute(q);
  ASSERT_TRUE(after_drop.ok());
  EXPECT_EQ(*scanned, *after_drop);
  EXPECT_GE(engine.plan_cache().stats().invalidations, 2u);
  explained = s.Execute("explain " + q);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("access: scan"), std::string::npos)
      << *explained;
}

// --- WHEN boundary handling at adjacent-interval edges (satellite 2) ---

TEST(VmWhenTest, AdjacentIntervalBoundariesMatchTreeWalker) {
  // i1.v has exactly adjacent segments: [0,9] -> 1, [10,19] -> 2,
  // [20,now] -> 3. Every WHEN below is answered identically by the VM
  // and the tree-walker, and a handful are pinned to exact interval
  // sets so a shared bug cannot hide.
  Database db;
  Interpreter interp(&db);
  auto run = [&](const std::string& s) {
    auto r = interp.Execute(s);
    ASSERT_TRUE(r.ok()) << s << ": " << r.status();
  };
  run("define class p attributes v: temporal(integer) end");
  run("create p (v: 1)");
  run("advance to 10");
  run("update i1 set v = 2");
  run("advance to 20");
  run("update i1 set v = 3");
  run("advance to 25");

  auto same = [&](const std::string& q) {
    Result<std::string> walked = interp.Execute(q);
    Result<std::string> compiled = RunCompiled(q, db);
    ASSERT_TRUE(walked.ok()) << q << ": " << walked.status();
    ASSERT_TRUE(compiled.ok()) << q << ": " << compiled.status();
    EXPECT_EQ(*walked, *compiled) << q;
  };
  auto pinned = [&](const std::string& q, const IntervalSet& want) {
    same(q);
    Result<std::string> walked = interp.Execute(q);
    ASSERT_TRUE(walked.ok());
    EXPECT_EQ(*walked, want.ToString()) << q;
  };

  pinned("when i1.v = 2", IntervalSet::Of(Interval(10, 19)));
  pinned("when i1.v >= 2", IntervalSet::Of(Interval(10, 25)));
  // Windows whose endpoints sit exactly on segment edges: the carry-in
  // boundary at the window start duplicates the segment edge, which the
  // dedup in CollectWhenBoundaries must absorb (a sorted-but-non-unique
  // boundary list would otherwise emit a degenerate piece).
  pinned("when i1.v = 2 during [10,19]", IntervalSet::Of(Interval(10, 19)));
  pinned("when i1.v = 2 during [10,10]", IntervalSet::Of(Interval(10, 10)));
  pinned("when i1.v = 2 during [9,10]", IntervalSet::Of(Interval(10, 10)));
  pinned("when i1.v = 2 during [19,20]", IntervalSet::Of(Interval(19, 19)));
  pinned("when i1.v = 1 during [0,9]", IntervalSet::Of(Interval(0, 9)));
  pinned("when i1.v = 3 during [20,now]",
         IntervalSet::Of(Interval(20, 25)));
  pinned("when i1.v = 2 during [11,12]", IntervalSet::Of(Interval(11, 12)));
  // Window entirely in one segment, endpoints interior.
  pinned("when i1.v = 1 during [3,6]", IntervalSet::Of(Interval(3, 6)));
  // Empty / out-of-range windows.
  pinned("when i1.v >= 1 during [26,40]", IntervalSet());
  same("when i1.v = 2 during [0,now]");
  same("when i1.v <> 2 during [5,14]");

  // The same battery with a value index present: CollectWhenBoundaries
  // switches to the pre-extracted timeline slice, which must be
  // point-identical to the segment walk it replaces.
  ASSERT_TRUE(interp.Execute("create index pv on p (v)").ok());
  pinned("when i1.v = 2", IntervalSet::Of(Interval(10, 19)));
  pinned("when i1.v = 2 during [10,19]", IntervalSet::Of(Interval(10, 19)));
  pinned("when i1.v = 2 during [9,10]", IntervalSet::Of(Interval(10, 10)));
  pinned("when i1.v = 2 during [19,20]", IntervalSet::Of(Interval(19, 19)));
  pinned("when i1.v >= 1 during [26,40]", IntervalSet());
  same("when i1.v <> 2 during [5,14]");
}

TEST(VmWhenTest, BoundaryRestrictionKeepsSemantics) {
  // The WHEN boundary scan only collects segment edges of the attributes
  // the condition actually reads; an unrelated attribute with a busy
  // history must not change the answer (it only ever could have split
  // intervals finer, and IntervalSet coalesces).
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp
                  .ExecuteScript(
                      "define class p attributes v: temporal(integer), "
                      "noise: temporal(integer) end; "
                      "create p (v: 1, noise: 0)")
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(interp.Execute("tick 3").ok());
    ASSERT_TRUE(
        interp.Execute("update i1 set noise = " + std::to_string(i)).ok());
  }
  ASSERT_TRUE(interp.Execute("update i1 set v = 9 during [7,11]").ok());
  Result<std::string> walked = interp.Execute("when i1.v > 5");
  ASSERT_TRUE(walked.ok()) << walked.status();
  Result<std::string> compiled = RunCompiled("when i1.v > 5", db);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(*walked, *compiled);
  EXPECT_EQ(*walked, IntervalSet::Of(Interval(7, 11)).ToString());
}

}  // namespace
}  // namespace tchimera

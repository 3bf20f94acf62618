// Tests for classes (Definition 4.1): derived types, history records,
// extent maintenance, metaclasses, and Rule 6.1 refinement at class
// definition time.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "core/db/consistency.h"
#include "core/db/database.h"
#include "core/schema/refinement.h"
#include "core/types/type_registry.h"
#include "storage/deserializer.h"
#include "storage/serializer.h"
#include "workload/random.h"

namespace tchimera {
namespace {

const Type* TInt() { return types::Integer(); }
const Type* TStr() { return types::String(); }
const Type* TTemp(const Type* t) { return types::Temporal(t).value(); }

TEST(ClassDefTest, KindFollowsCAttributes) {
  // Definition 4.1: a class is historical iff it has a temporal
  // c-attribute — instance attributes do not matter.
  ClassDef static_cls("a", 0, {}, {{"x", TTemp(TInt())}}, {},
                      {{"count", TInt()}}, {});
  EXPECT_EQ(static_cls.kind(), ClassKind::kStatic);
  ClassDef historical_cls("b", 0, {}, {{"x", TInt()}}, {},
                          {{"count", TTemp(TInt())}}, {});
  EXPECT_EQ(historical_cls.kind(), ClassKind::kHistorical);
}

TEST(ClassDefTest, DerivedTypes) {
  ClassDef cls("c", 0, {},
               {{"name", TTemp(TStr())},
                {"objective", TStr()},
                {"score", TTemp(TInt())}},
               {}, {}, {});
  EXPECT_EQ(cls.StructuralType()->ToString(),
            "record-of(name:temporal(string),objective:string,"
            "score:temporal(integer))");
  EXPECT_EQ(cls.HistoricalType()->ToString(),
            "record-of(name:string,score:integer)");
  EXPECT_EQ(cls.StaticType()->ToString(), "record-of(objective:string)");
}

TEST(ClassDefTest, DerivedTypesNullWhenEmpty) {
  // h_type is null for all-static classes, s_type for all-temporal ones
  // (footnote 5 of the paper).
  ClassDef all_static("s", 0, {}, {{"x", TInt()}}, {}, {}, {});
  EXPECT_EQ(all_static.HistoricalType(), nullptr);
  EXPECT_NE(all_static.StaticType(), nullptr);
  ClassDef all_temporal("t", 0, {}, {{"x", TTemp(TInt())}}, {}, {}, {});
  EXPECT_EQ(all_temporal.StaticType(), nullptr);
  EXPECT_NE(all_temporal.HistoricalType(), nullptr);
  ClassDef empty("e", 0, {}, {}, {}, {}, {});
  EXPECT_EQ(empty.StructuralType(), nullptr);
}

TEST(ClassDefTest, ExtentMaintenance) {
  ClassDef cls("c", 0, {}, {}, {}, {}, {});
  ASSERT_TRUE(cls.AddMember(Oid{1}, 5).ok());
  ASSERT_TRUE(cls.AddMember(Oid{2}, 10).ok());
  EXPECT_FALSE(cls.InExtentAt(Oid{1}, 4));
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 5));
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 100));
  EXPECT_FALSE(cls.InExtentAt(Oid{2}, 9));
  EXPECT_TRUE(cls.InExtentAt(Oid{2}, 10));
  ASSERT_TRUE(cls.RemoveMember(Oid{1}, 20).ok());
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 19));
  EXPECT_FALSE(cls.InExtentAt(Oid{1}, 20));
  // Member intervals reflect the whole story.
  EXPECT_EQ(cls.MemberIntervals(Oid{1}, 100).ToString(), "{[5,19]}");
  EXPECT_EQ(cls.RawMemberIntervals(Oid{2}).ToString(), "{[10,now]}");
  // Re-adding later gives a non-contiguous membership (fire/rehire).
  ASSERT_TRUE(cls.AddMember(Oid{1}, 30).ok());
  EXPECT_EQ(cls.MemberIntervals(Oid{1}, 100).ToString(), "{[5,19],[30,100]}");
}

TEST(ClassDefTest, RetroactiveMembershipPreservesLaterHistory) {
  ClassDef cls("c", 0, {}, {}, {}, {}, {});
  ASSERT_TRUE(cls.AddMember(Oid{1}, 10).ok());
  ASSERT_TRUE(cls.RemoveMember(Oid{1}, 20).ok());
  // Retroactively add a different member from t=5: must not clobber the
  // removal of Oid{1} at 20.
  ASSERT_TRUE(cls.AddMember(Oid{2}, 5).ok());
  EXPECT_TRUE(cls.InExtentAt(Oid{2}, 5));
  EXPECT_TRUE(cls.InExtentAt(Oid{2}, 50));
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 15));
  EXPECT_FALSE(cls.InExtentAt(Oid{1}, 25));
}

TEST(ClassDefTest, HistoryRecordShape) {
  ClassDef cls("c", 7, {}, {}, {}, {{"avg", TInt()}}, {});
  ASSERT_TRUE(cls.SetCAttribute("avg", Value::Integer(20), 7).ok());
  ASSERT_TRUE(cls.AddMember(Oid{1}, 7).ok());
  ASSERT_TRUE(cls.AddInstance(Oid{1}, 7).ok());
  Value history = cls.History();
  EXPECT_EQ(*history.FieldValue("avg"), Value::Integer(20));
  EXPECT_EQ(history.FieldValue("ext")->kind(), ValueKind::kTemporal);
  EXPECT_EQ(history.FieldValue("proper-ext")->kind(), ValueKind::kTemporal);
  // PE(t) subset of E(t) by construction.
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 7));
  EXPECT_TRUE(cls.InProperExtentAt(Oid{1}, 7));
}

TEST(ClassDefTest, TemporalCAttributeKeepsHistory) {
  ClassDef cls("c", 0, {}, {}, {}, {{"avg", TTemp(TInt())}}, {});
  ASSERT_TRUE(cls.SetCAttribute("avg", Value::Integer(10), 5).ok());
  ASSERT_TRUE(cls.SetCAttribute("avg", Value::Integer(30), 9).ok());
  Value v = cls.CAttributeValue("avg").value();
  ASSERT_EQ(v.kind(), ValueKind::kTemporal);
  EXPECT_EQ(*v.AsTemporal().At(6), Value::Integer(10));
  EXPECT_EQ(*v.AsTemporal().At(9), Value::Integer(30));
  EXPECT_FALSE(cls.CAttributeValue("nope").ok());
}

TEST(ClassDefTest, CloseLifespan) {
  ClassDef cls("c", 3, {}, {}, {}, {}, {});
  ASSERT_TRUE(cls.AddMember(Oid{1}, 5).ok());
  EXPECT_TRUE(cls.alive());
  ASSERT_TRUE(cls.CloseLifespan(9).ok());
  EXPECT_FALSE(cls.alive());
  EXPECT_EQ(cls.lifespan(), Interval(3, 9));
  // Extents are clipped with it.
  EXPECT_TRUE(cls.InExtentAt(Oid{1}, 9));
  EXPECT_FALSE(cls.InExtentAt(Oid{1}, 10));
  // Classes are never recreated (Section 4).
  EXPECT_FALSE(cls.CloseLifespan(12).ok());
}

// --- Rule 6.1 refinement matrix ------------------------------------------------

class RefinementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(isa_.AddClass("person", {}).ok());
    ASSERT_TRUE(isa_.AddClass("employee", {"person"}).ok());
  }
  Status Check(const Type* inherited, const Type* refined) {
    return CheckAttributeRefinement({"a", inherited}, {"a", refined}, isa_);
  }
  IsaGraph isa_;
};

TEST_F(RefinementTest, IdentityAndSpecialization) {
  EXPECT_TRUE(Check(TInt(), TInt()).ok());
  EXPECT_TRUE(
      Check(types::Object("person"), types::Object("employee")).ok());
  EXPECT_FALSE(
      Check(types::Object("employee"), types::Object("person")).ok());
}

TEST_F(RefinementTest, NonTemporalMayBecomeTemporal) {
  // Rule 6.1 clause 2, the [6]-inspired direction.
  EXPECT_TRUE(Check(TInt(), TTemp(TInt())).ok());
  EXPECT_TRUE(Check(types::Object("person"),
                    TTemp(types::Object("employee")))
                  .ok());
  // ...but never the reverse.
  Status s = Check(TTemp(TInt()), TInt());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
}

TEST_F(RefinementTest, TemporalToTemporalSpecializes) {
  EXPECT_TRUE(Check(TTemp(types::Object("person")),
                    TTemp(types::Object("employee")))
                  .ok());
  EXPECT_FALSE(Check(TTemp(types::Object("employee")),
                     TTemp(types::Object("person")))
                   .ok());
}

TEST_F(RefinementTest, MethodVariance) {
  // Covariant result, contravariant inputs.
  MethodDef inherited{"m",
                      {types::Object("employee")},
                      types::Object("person")};
  MethodDef good{"m", {types::Object("person")},
                 types::Object("employee")};
  EXPECT_TRUE(CheckMethodRefinement(inherited, good, isa_).ok());
  MethodDef bad_input{"m", {types::Object("employee")},
                      types::Object("person")};
  bad_input.inputs = {types::Object("employee")};
  EXPECT_TRUE(CheckMethodRefinement(inherited, bad_input, isa_).ok());
  // Narrowing an input violates contravariance... build a real violation:
  MethodDef narrow{"m", {types::Object("employee")},
                   types::Object("person")};
  MethodDef from_person{"m", {types::Object("person")},
                        types::Object("person")};
  EXPECT_FALSE(CheckMethodRefinement(from_person, narrow, isa_).ok());
  // Generalizing the result violates covariance.
  MethodDef widen{"m", {types::Object("employee")},
                  types::Object("person")};
  MethodDef returns_employee{"m",
                             {types::Object("employee")},
                             types::Object("employee")};
  EXPECT_FALSE(
      CheckMethodRefinement(returns_employee, widen, isa_).ok());
  // Arity must match.
  MethodDef nullary{"m", {}, types::Object("person")};
  EXPECT_FALSE(CheckMethodRefinement(inherited, nullary, isa_).ok());
}

TEST(DatabaseSchemaTest, InheritedMembersAreMerged) {
  Database db;
  ClassSpec person;
  person.name = "person";
  person.attributes = {{"name", TTemp(TStr())}, {"birthyear", TInt()}};
  person.methods = {{"greet", {}, TStr()}};
  ASSERT_TRUE(db.DefineClass(person).ok());
  ClassSpec employee;
  employee.name = "employee";
  employee.superclasses = {"person"};
  employee.attributes = {{"salary", TTemp(TInt())}};
  ASSERT_TRUE(db.DefineClass(employee).ok());
  const ClassDef* cls = db.GetClass("employee");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->attributes().size(), 3u);  // name, birthyear, salary
  EXPECT_NE(cls->FindAttribute("name"), nullptr);
  EXPECT_NE(cls->FindMethod("greet"), nullptr);
  EXPECT_EQ(cls->metaclass(), "m-employee");
}

TEST(DatabaseSchemaTest, RefinementValidatedAtDefineTime) {
  Database db;
  ClassSpec person;
  person.name = "person";
  person.attributes = {{"score", TTemp(TInt())}};
  ASSERT_TRUE(db.DefineClass(person).ok());
  // Attempting to make an inherited temporal attribute static fails.
  ClassSpec bad;
  bad.name = "employee";
  bad.superclasses = {"person"};
  bad.attributes = {{"score", TInt()}};
  Status s = db.DefineClass(bad);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  // The failed definition left no trace.
  EXPECT_EQ(db.GetClass("employee"), nullptr);
  EXPECT_FALSE(db.isa().Contains("employee"));
}

TEST(DatabaseSchemaTest, MultipleInheritanceConflictsMustBeResolved) {
  Database db;
  ClassSpec a;
  a.name = "a";
  a.attributes = {{"x", TInt()}};
  ASSERT_TRUE(db.DefineClass(a).ok());
  ClassSpec b;
  b.name = "b";
  b.attributes = {{"x", TStr()}};
  ASSERT_TRUE(db.DefineClass(b).ok());
  ClassSpec both;
  both.name = "both";
  both.superclasses = {"a", "b"};
  EXPECT_FALSE(db.DefineClass(both).ok());
  // Redeclaring the conflicting member would need a common subtype of
  // integer and string — impossible here, so only agreeing supers work.
  ClassSpec c;
  c.name = "c";
  c.attributes = {{"x", TInt()}};
  c.superclasses = {"a"};
  EXPECT_TRUE(db.DefineClass(c).ok());
}

TEST(DatabaseSchemaTest, SpecValidation) {
  Database db;
  ClassSpec bad_name;
  bad_name.name = "9bad";
  EXPECT_FALSE(db.DefineClass(bad_name).ok());
  ClassSpec reserved;
  reserved.name = "c";
  reserved.c_attributes = {{"ext", TInt()}};
  EXPECT_FALSE(db.DefineClass(reserved).ok());
  ClassSpec any_attr;
  any_attr.name = "c";
  any_attr.attributes = {{"x", types::SetOf(types::Any())}};
  Status s = db.DefineClass(any_attr);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  ClassSpec dangling;
  dangling.name = "c";
  dangling.superclasses = {"ghost"};
  EXPECT_FALSE(db.DefineClass(dangling).ok());
  ClassSpec dup;
  dup.name = "c";
  ASSERT_TRUE(db.DefineClass(dup).ok());
  EXPECT_FALSE(db.DefineClass(dup).ok());
}

TEST(DatabaseSchemaTest, DropClassRules) {
  Database db;
  ClassSpec person;
  person.name = "person";
  ASSERT_TRUE(db.DefineClass(person).ok());
  ClassSpec employee;
  employee.name = "employee";
  employee.superclasses = {"person"};
  ASSERT_TRUE(db.DefineClass(employee).ok());
  // A class with a live subclass cannot be dropped.
  EXPECT_FALSE(db.DropClass("person").ok());
  // A class with members cannot be dropped.
  Oid e = db.CreateObject("employee").value();
  EXPECT_FALSE(db.DropClass("employee").ok());
  db.Tick();
  ASSERT_TRUE(db.DeleteObject(e).ok());
  db.Tick();
  EXPECT_TRUE(db.DropClass("employee").ok());
  EXPECT_FALSE(db.GetClass("employee")->alive());
  EXPECT_FALSE(db.DropClass("employee").ok());  // already deleted
  EXPECT_TRUE(db.DropClass("person").ok());
  EXPECT_FALSE(db.DropClass("ghost").ok());
}

// --- extent postings -------------------------------------------------------

constexpr size_t kChunk = ExtentPostings::kChunkSize;

TEST(ExtentPostingsTest, CopyThenAddMemberSharesUntouchedChunks) {
  ClassDef cls("c", 0, {}, {}, {}, {}, {});
  for (uint64_t id = 1; id <= 4 * kChunk; ++id) {
    ASSERT_TRUE(cls.AddMember(Oid{id}, 0).ok());
  }
  ASSERT_EQ(cls.member_postings().chunk_count(), 4u);
  ClassDef copy = cls;  // the copy-on-write clone of GetMutableClass
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(copy.member_postings().chunk_use_count(i), 2) << i;
  }
  // A change inside chunk 1 rebuilds that chunk only.
  ASSERT_TRUE(copy.RemoveMember(Oid{kChunk + 3}, 5).ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(copy.member_postings().chunk_use_count(i), i == 1 ? 1 : 2)
        << i;
  }
  // A create past the full tail chunk opens a new chunk, cloning none.
  ASSERT_TRUE(copy.AddMember(Oid{4 * kChunk + 1}, 5).ok());
  ASSERT_EQ(copy.member_postings().chunk_count(), 5u);
  EXPECT_EQ(copy.member_postings().chunk_use_count(3), 2);
  EXPECT_EQ(copy.member_postings().chunk_use_count(4), 1);
  // The original is untouched.
  EXPECT_TRUE(cls.InExtentAt(Oid{kChunk + 3}, 9));
  EXPECT_FALSE(copy.InExtentAt(Oid{kChunk + 3}, 9));
  EXPECT_FALSE(cls.InExtentAt(Oid{4 * kChunk + 1}, 9));
  EXPECT_EQ(cls.ExtentSizeAt(9), 4 * kChunk);
  EXPECT_EQ(copy.ExtentSizeAt(9), 4 * kChunk);
}

// Postings against a naive per-oid reference under random membership
// changes in random oid order (chunk splits, middle inserts, erasures).
TEST(ExtentPostingsTest, RandomEditsMatchNaiveIntervals) {
  Rng rng(20261018);
  ExtentPostings postings;
  std::map<uint64_t, IntervalSet> ref;  // raw intervals (kNow = +inf)
  const TimePoint kMaxT = 60;
  for (int step = 0; step < 6000; ++step) {
    const uint64_t id = static_cast<uint64_t>(rng.Uniform(1, 1500));
    const TimePoint t = rng.Uniform(0, kMaxT);
    const int op = static_cast<int>(rng.Uniform(0, 9));
    IntervalSet& want = ref[id];
    if (op < 6) {
      postings.AddFrom(Oid{id}, t);
      want.Add(Interval::FromUntilNow(t));
    } else if (op < 9) {
      postings.RemoveFrom(Oid{id}, t);
      want = want.Difference(IntervalSet::Of(Interval::FromUntilNow(t)));
    } else {
      postings.Erase(Oid{id});
      want = IntervalSet();
    }
    if (step % 500 == 0 || step == 5999) {
      std::vector<ExtentPostings::Posting> expected;
      for (const auto& [oid, ivs] : ref) {
        if (!ivs.empty()) expected.push_back({Oid{oid}, ivs.intervals()});
      }
      std::vector<ExtentPostings::Posting> got;
      postings.ForEach([&](Oid oid, std::span<const Interval> ivs) {
        got.push_back({oid, {ivs.begin(), ivs.end()}});
      });
      ASSERT_EQ(got.size(), expected.size()) << "step " << step;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].oid, expected[i].oid) << "step " << step;
        ASSERT_EQ(got[i].intervals, expected[i].intervals)
            << "step " << step << " oid " << got[i].oid.ToString();
      }
      for (TimePoint at = 0; at <= kMaxT + 1; at += 7) {
        std::vector<Oid> members;
        for (const auto& [oid, ivs] : ref) {
          if (ivs.Contains(at)) members.push_back(Oid{oid});
        }
        ASSERT_EQ(postings.MembersAt(at), members) << "t=" << at;
        ASSERT_EQ(postings.CountAt(at), members.size());
      }
    }
  }
  EXPECT_GT(postings.chunk_count(), 1500 / kChunk);
  postings.CloseAt(30);
  postings.ForEach([](Oid, std::span<const Interval> ivs) {
    EXPECT_LE(ivs.back().end(), 30);
  });
}

TEST(ExtentPostingsTest, MalformedPostingsAreRejected) {
  using P = ExtentPostings::Posting;
  EXPECT_FALSE(ExtentPostings::FromPostings(
                   {P{Oid{2}, {Interval(0, 3)}}, P{Oid{1}, {Interval(0, 3)}}})
                   .ok());  // out of oid order
  EXPECT_FALSE(ExtentPostings::FromPostings({P{Oid{1}, {}}}).ok());
  EXPECT_FALSE(ExtentPostings::FromPostings(
                   {P{Oid{1}, {Interval(0, 3), Interval(4, 9)}}})
                   .ok());  // adjacent: not maximal
  EXPECT_FALSE(ExtentPostings::FromPostings(
                   {P{Oid{1}, {Interval(5, 9), Interval(0, 2)}}})
                   .ok());  // unsorted
  EXPECT_TRUE(ExtentPostings::FromPostings(
                  {P{Oid{1}, {Interval(0, 3), Interval(5, kNow)}}})
                  .ok());
}

// Seeded random membership histories through the Database API, checked
// after every step against a naive reference built from each object's
// lifespan and class history (Invariants 5.1/5.2: membership is exactly
// "alive and the most specific class is a subclass"). The parameter is
// (seed, historical).
class MembershipDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {
 protected:
  void SetUp() override {
    // Two hierarchies: person > {employee > manager, student > intern},
    // and project on its own. When `historical`, both roots carry a
    // temporal attribute, so every object is historical and its class
    // history is recorded in full; otherwise no class has an attribute
    // and every object is static (Def. 5.1).
    std::vector<AttributeDef> root_attributes;
    if (std::get<1>(GetParam())) root_attributes = {{"v", TTemp(TInt())}};
    Define("person", {}, root_attributes);
    Define("employee", {"person"});
    Define("manager", {"employee"});
    Define("student", {"person"});
    Define("intern", {"student"});
    Define("project", {}, root_attributes);
  }

  void Define(const std::string& name, std::vector<std::string> supers,
              std::vector<AttributeDef> attributes = {}) {
    ClassSpec spec;
    spec.name = name;
    spec.superclasses = std::move(supers);
    spec.attributes = std::move(attributes);
    ASSERT_TRUE(db_.DefineClass(spec).ok());
    classes_.push_back(name);
  }

  // Naive membership of `oid` in `cls` at raw instant t.
  bool RefMember(const Object& obj, const std::string& cls, TimePoint t,
                 bool proper) const {
    const Interval& life = obj.lifespan();
    if (life.empty() || t < life.start() || t > life.end()) return false;
    const Value* c = obj.class_history().At(t);
    if (c == nullptr || c->kind() != ValueKind::kString) return false;
    return proper ? c->AsString() == cls
                  : db_.isa().IsSubclassOf(c->AsString(), cls);
  }

  std::vector<Oid> RefExtent(const std::string& cls, TimePoint t,
                             bool proper) const {
    std::vector<Oid> out;
    for (Oid oid : db_.AllOids()) {
      if (RefMember(*db_.GetObject(oid), cls, t, proper)) out.push_back(oid);
    }
    return out;
  }

  // Naive m_lifespan: the class-history pieces under `cls`, within the
  // lifespan, resolved against now.
  IntervalSet RefMLifespan(const Object& obj, const std::string& cls) const {
    std::vector<Interval> out;
    for (const auto& seg : obj.class_history().segments()) {
      if (!db_.isa().IsSubclassOf(seg.value.AsString(), cls)) continue;
      TimePoint s = std::max(seg.interval.start(), obj.lifespan().start());
      TimePoint e = std::min(seg.interval.end(), obj.lifespan().end());
      if (s <= e) out.push_back(Interval(s, e).Resolve(db_.now()));
    }
    return IntervalSet(std::move(out));
  }

  void CheckAgainstReference(Rng* rng, bool materialize) {
    const TimePoint now = db_.now();
    for (const std::string& cls : classes_) {
      const ClassDef* def = db_.GetClass(cls);
      const TemporalFunction ext =
          materialize ? def->ext() : TemporalFunction();
      const TemporalFunction pext =
          materialize ? def->proper_ext() : TemporalFunction();
      for (TimePoint t = 0; t <= now + 1; ++t) {
        const std::vector<Oid> members = RefExtent(cls, t, false);
        const std::vector<Oid> instances = RefExtent(cls, t, true);
        ASSERT_EQ(db_.Pi(cls, t), members) << cls << " t=" << t;
        ASSERT_EQ(db_.PiCount(cls, t), members.size());
        ASSERT_EQ(def->ProperExtentAt(t), instances) << cls << " t=" << t;
        if (!materialize) continue;
        // ext / proper-ext: defined exactly where the set is non-empty.
        for (const auto& [f, want] : {std::pair{&ext, &members},
                                      std::pair{&pext, &instances}}) {
          const Value* v = f->At(t);
          if (want->empty()) {
            ASSERT_EQ(v, nullptr) << cls << " t=" << t;
            continue;
          }
          ASSERT_NE(v, nullptr) << cls << " t=" << t;
          std::vector<Value> elems;
          for (Oid oid : *want) elems.push_back(Value::OfOid(oid));
          ASSERT_EQ(*v, Value::Set(std::move(elems))) << cls << " t=" << t;
        }
      }
      for (Oid oid : db_.AllOids()) {
        const Object& obj = *db_.GetObject(oid);
        const TimePoint t = rng->Uniform(0, now + 1);
        ASSERT_EQ(db_.InExtent(cls, oid, t), RefMember(obj, cls, t, false))
            << cls << " " << oid.ToString() << " t=" << t;
        ASSERT_EQ(db_.MLifespan(oid, cls).value(), RefMLifespan(obj, cls))
            << cls << " " << oid.ToString();
        const TimePoint a = rng->Uniform(0, now + 1);
        const TimePoint b = rng->Chance(0.3) ? kNow : rng->Uniform(a, now + 1);
        bool throughout = true;
        for (TimePoint u = a; u <= std::min(b, now + 2); ++u) {
          throughout = throughout && RefMember(obj, cls, u, false);
        }
        if (IsNow(b)) {
          throughout = throughout && IsNow(obj.lifespan().end()) &&
                       RefMember(obj, cls, kNow, false);
        }
        ASSERT_EQ(db_.InExtentThroughout(cls, oid, Interval(a, b)),
                  throughout)
            << cls << " " << oid.ToString() << " " << Interval(a, b).ToString();
      }
    }
  }

  void CheckSnapshots() {
    const std::string v5 = SaveDatabaseToString(db_).value();
    const uint32_t hash = DatabaseStateHash(db_).value();
    Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromString(v5);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(SaveDatabaseToString(**loaded).value(), v5);
    EXPECT_EQ(DatabaseStateHash(**loaded).value(), hash);
  }

  std::vector<Oid> LiveOids() const {
    std::vector<Oid> out;
    for (Oid oid : db_.AllOids()) {
      if (db_.GetObject(oid)->alive()) out.push_back(oid);
    }
    return out;
  }

  std::vector<std::string> LiveClasses() const {
    std::vector<std::string> out;
    for (const std::string& cls : classes_) {
      if (db_.GetClass(cls)->alive()) out.push_back(cls);
    }
    return out;
  }

  Database db_;
  std::vector<std::string> classes_;
};

TEST_P(MembershipDifferentialTest, MatchesClassHistories) {
  Rng rng(std::get<0>(GetParam()));
  constexpr int kSteps = 160;
  for (int step = 0; step < kSteps; ++step) {
    const int op = static_cast<int>(rng.Uniform(0, 99));
    const std::vector<Oid> live = LiveOids();
    const std::vector<std::string> classes = LiveClasses();
    std::string what;
    if (op < 22 || live.empty()) {
      const std::string& cls = rng.Pick(classes);
      what = "create " + cls;
      ASSERT_TRUE(db_.CreateObject(cls).ok()) << what;
    } else if (op < 32) {
      const std::string& cls = rng.Pick(classes);
      const TimePoint start = rng.Uniform(db_.GetClass(cls)->lifespan().start(),
                                          db_.now());
      what = "create " + cls + " at " + std::to_string(start);
      ASSERT_TRUE(db_.CreateObjectAt(cls, start).ok()) << what;
    } else if (op < 62) {
      // Migrate up or down within the object's hierarchy.
      const Oid oid = rng.Pick(live);
      const std::string from = *db_.GetObject(oid)->CurrentClass();
      std::vector<std::string> targets;
      for (const std::string& cls : classes) {
        if (cls != from && cls != "project" && from != "project") {
          targets.push_back(cls);
        }
      }
      if (targets.empty()) continue;
      const std::string& to = rng.Pick(targets);
      what = "migrate " + oid.ToString() + " " + from + " -> " + to;
      ASSERT_TRUE(db_.Migrate(oid, to).ok()) << what;
    } else if (op < 74) {
      const Oid oid = rng.Pick(live);
      what = "delete " + oid.ToString();
      ASSERT_TRUE(db_.DeleteObject(oid).ok()) << what;
    } else if (op < 77) {
      const Oid oid = rng.Pick(live);
      what = "quarantine " + oid.ToString();
      ASSERT_TRUE(db_.QuarantineObject(oid).ok()) << what;
    } else if (op < 79 && db_.GetClass("intern")->alive() &&
               db_.PiCount("intern", db_.now()) == 0) {
      what = "drop intern";
      ASSERT_TRUE(db_.DropClass("intern").ok()) << what;
    } else {
      what = "tick";
      db_.Tick(rng.Uniform(1, 2));
    }
    SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
    ASSERT_NO_FATAL_FAILURE(
        CheckAgainstReference(&rng, /*materialize=*/step % 8 == 0));
    Status consistent = CheckDatabaseConsistency(db_);
    ASSERT_TRUE(consistent.ok()) << consistent;
    if (step % 40 == 0 || step == kSteps - 1) {
      ASSERT_NO_FATAL_FAILURE(CheckSnapshots());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipDifferentialTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Bool()));

}  // namespace
}  // namespace tchimera

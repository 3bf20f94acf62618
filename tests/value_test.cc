// Unit + property tests for the value model (Section 3.2): construction,
// canonicalization, the total order, printing and parsing.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>
#include <string>
#include <utility>

#include "core/types/type_registry.h"
#include "core/values/temporal_function.h"
#include "core/values/value.h"
#include "core/values/value_parser.h"

namespace tchimera {
namespace {

TEST(ValueTest, ScalarRoundTrips) {
  EXPECT_EQ(Value::Integer(42).AsInteger(), 42);
  EXPECT_DOUBLE_EQ(Value::Real(3.25).AsReal(), 3.25);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Char('x').AsChar(), 'x');
  EXPECT_EQ(Value::String("IDEA").AsString(), "IDEA");
  EXPECT_EQ(Value::Time(17).AsTime(), 17);
  EXPECT_EQ(Value::OfOid(Oid{7}).AsOid(), (Oid{7}));
  EXPECT_TRUE(Value::Null().is_null());
}

TEST(ValueTest, SetsAreCanonical) {
  Value a = Value::Set({Value::Integer(3), Value::Integer(1),
                        Value::Integer(3), Value::Integer(2)});
  EXPECT_EQ(a.Elements().size(), 3u);  // duplicates removed
  EXPECT_EQ(a.ToString(), "{1,2,3}");  // sorted
  Value b = Value::Set({Value::Integer(2), Value::Integer(1),
                        Value::Integer(3)});
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.Contains(Value::Integer(2)));
  EXPECT_FALSE(a.Contains(Value::Integer(9)));
}

TEST(ValueTest, ListsPreserveOrderAndDuplicates) {
  Value l = Value::List({Value::Integer(3), Value::Integer(1),
                         Value::Integer(3)});
  EXPECT_EQ(l.ToString(), "[3,1,3]");
  EXPECT_TRUE(l.Contains(Value::Integer(3)));
  EXPECT_NE(l, Value::List({Value::Integer(1), Value::Integer(3),
                            Value::Integer(3)}));
}

TEST(ValueTest, RecordsSortByNameAndRejectDuplicates) {
  Value r = Value::Record({{"b", Value::Integer(2)},
                           {"a", Value::Integer(1)}})
                .value();
  EXPECT_EQ(r.ToString(), "(a:1,b:2)");
  EXPECT_EQ(*r.FieldValue("a"), Value::Integer(1));
  EXPECT_EQ(r.FieldValue("zzz"), nullptr);
  EXPECT_FALSE(
      Value::Record({{"a", Value::Integer(1)}, {"a", Value::Integer(2)}})
          .ok());
}

TEST(ValueTest, CompareIsTotalOrderOnSamples) {
  std::vector<Value> samples = {
      Value::Null(),
      Value::Integer(-5),
      Value::Integer(7),
      Value::Real(2.5),
      Value::Bool(false),
      Value::Char('q'),
      Value::String("abc"),
      Value::String("abd"),
      Value::Time(9),
      Value::OfOid(Oid{3}),
      Value::Set({Value::Integer(1)}),
      Value::Set({Value::Integer(1), Value::Integer(2)}),
      Value::List({Value::Integer(1)}),
      Value::Record({{"a", Value::Integer(1)}}).value(),
      Value::Temporal(
          TemporalFunction::Constant(Interval(1, 5), Value::Integer(3))),
  };
  for (const Value& a : samples) {
    EXPECT_EQ(Value::Compare(a, a), 0) << a.ToString();
    for (const Value& b : samples) {
      // Antisymmetry.
      EXPECT_EQ(Value::Compare(a, b), -Value::Compare(b, a))
          << a.ToString() << " vs " << b.ToString();
      for (const Value& c : samples) {
        // Transitivity on <=.
        if (Value::Compare(a, b) <= 0 && Value::Compare(b, c) <= 0) {
          EXPECT_LE(Value::Compare(a, c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

TEST(ValueTest, CollectOids) {
  Value v = Value::Record(
                {{"plain", Value::OfOid(Oid{1})},
                 {"nested", Value::Set({Value::OfOid(Oid{2}),
                                        Value::Integer(5)})},
                 {"hist",
                  Value::Temporal(TemporalFunction::Constant(
                      Interval(1, 10), Value::OfOid(Oid{3})))}})
                .value();
  std::vector<Oid> all;
  v.CollectOids(&all);
  EXPECT_EQ(all.size(), 3u);
  // At-instant collection only sees temporal segments containing the
  // instant.
  std::vector<Oid> at_20;
  v.CollectOidsAt(20, &at_20);
  EXPECT_EQ(at_20.size(), 2u);  // oid 3's segment [1,10] excluded
}

TEST(ValueTest, PrinterMatchesPaperNotation) {
  TemporalFunction score;
  ASSERT_TRUE(score.Define(Interval(1, 100), Value::Integer(40)).ok());
  ASSERT_TRUE(score.Define(Interval(101, 200), Value::Integer(70)).ok());
  Value rec = Value::Record({{"name", Value::String("Bob")},
                             {"score", Value::Temporal(score)}})
                  .value();
  EXPECT_EQ(rec.ToString(),
            "(name:'Bob',score:{<[1,100],40>,<[101,200],70>})");
}

TEST(ValueTest, AppendToMatchesToStringForEveryKind) {
  // A temporal record inside a record: (id, addr) where addr is a
  // history of records.
  TemporalFunction addr;
  ASSERT_TRUE(addr.Define(Interval(1, 5),
                          Value::Record({{"city", Value::String("Rome")},
                                         {"zip", Value::Integer(1)}})
                              .value())
                  .ok());
  ASSERT_TRUE(addr.AssertFrom(6, Value::Record({{"city", Value::String(
                                                          "O'slo\n")}})
                                     .value())
                  .ok());
  const Value nested = Value::Record({{"id", Value::OfOid(Oid{3})},
                                      {"addr", Value::Temporal(addr)}})
                           .value();
  const std::pair<Value, std::string> cases[] = {
      {Value::Null(), "null"},
      {Value::Integer(-17), "-17"},
      {Value::Integer(std::numeric_limits<int64_t>::min()),
       "-9223372036854775808"},
      {Value::Real(3.0), "3.0"},
      {Value::Real(-0.0), "-0.0"},
      {Value::Real(2.5), "2.5"},
      {Value::Real(1e20), "1e+20"},
      {Value::Bool(true), "true"},
      {Value::Bool(false), "false"},
      {Value::Char('x'), "c'x'"},
      {Value::Char('\''), "c'\\''"},
      {Value::Char('\\'), "c'\\\\'"},
      {Value::Char('\n'), "c'\\n'"},
      {Value::Char('\t'), "c'\\t'"},
      {Value::String("a'b\\c\nd\te"), "'a\\'b\\\\c\\nd\\te'"},
      {Value::String(""), "''"},
      {Value::Time(17), "t17"},
      {Value::Time(kNow), "tnow"},
      {Value::OfOid(Oid{42}), "i42"},
      {Value::Set({Value::Integer(2), Value::String("s")}), "{2,'s'}"},
      {Value::EmptySet(), "{}"},
      {Value::List({Value::Bool(true), Value::Null()}), "[true,null]"},
      {Value::Record({}).value(), "()"},
      {Value::Temporal(TemporalFunction()), "{}"},
      {Value::Temporal(
           TemporalFunction::Constant(Interval(4, kNow), Value::Real(1.0))),
       "{<[4,now],1.0>}"},
      {nested,
       "(addr:{<[1,5],(city:'Rome',zip:1)>,<[6,now],(city:'O\\'slo\\n')>},"
       "id:i3)"},
  };
  std::set<ValueKind> kinds;
  for (const auto& [value, text] : cases) {
    kinds.insert(value.kind());
    EXPECT_EQ(value.ToString(), text);
    // AppendTo appends: what is already in the buffer stays.
    std::string out = "prefix|";
    value.AppendTo(&out);
    EXPECT_EQ(out, "prefix|" + text);
  }
  EXPECT_EQ(kinds.size(), static_cast<size_t>(ValueKind::kTemporal) + 1);
  // Intervals render through the same path.
  std::string out;
  Interval(3, kNow).AppendTo(&out);
  Interval::Empty().AppendTo(&out);
  EXPECT_EQ(out, "[3,now][]");
  EXPECT_EQ(Interval(3, 17).ToString(), "[3,17]");
}

class ValueRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ValueRoundTripTest, ParsePrintParse) {
  Result<Value> v = ParseValue(GetParam());
  ASSERT_TRUE(v.ok()) << GetParam() << ": " << v.status();
  Result<Value> again = ParseValue(v->ToString());
  ASSERT_TRUE(again.ok()) << v->ToString();
  EXPECT_EQ(*again, *v);
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, ValueRoundTripTest,
    ::testing::Values(
        "null", "true", "false", "42", "-17", "3.5", "-2.5e3", "'IDEA'",
        "'escaped \\' quote'", "c'x'", "t42", "tnow", "i7", "{1,2,3}",
        "{}", "[1,1,2]", "[]", "(a:1,b:'x')", "()",
        "{<[5,10],12>,<[11,30],5>}", "{<[20,now],'IDEA'>}",
        "(name:'Bob',score:{<[1,100],40>,<[101,200],70>})",
        "{{1,2},{3}}", "[(a:{i1,i2}),(a:{})]",
        "{<[1,5],{i1,i2}>,<[6,now],{i1}>}"));

TEST(ValueParserTest, HintDisambiguatesEmptyBraces) {
  const Type* temporal_int = types::Temporal(types::Integer()).value();
  Value as_temporal = ParseValue("{}", temporal_int).value();
  EXPECT_EQ(as_temporal.kind(), ValueKind::kTemporal);
  Value as_set = ParseValue("{}").value();
  EXPECT_EQ(as_set.kind(), ValueKind::kSet);
}

TEST(ValueParserTest, RejectsMalformedValues) {
  for (const char* bad :
       {"", "{1,", "(a:)", "<[1,2],3>", "{<[1,2]>}", "'unterminated",
        "c'xy'", "(:1)", "1 2"}) {
    EXPECT_FALSE(ParseValue(bad).ok()) << bad;
  }
  // Empty intervals inside a temporal literal are dropped, not an error.
  EXPECT_EQ(ParseValue("{<[5,3],1>,<[4,9],2>}").value().ToString(),
            "{<[4,9],2>}");
  // Overlapping segments are a temporal error.
  EXPECT_FALSE(ParseValue("{<[1,5],1>,<[3,9],2>}").ok());
}

TEST(ValueTest, ApproxBytesGrowsWithContent) {
  Value small = Value::Integer(1);
  Value big = Value::Set({Value::String(std::string(100, 'x')),
                          Value::String(std::string(200, 'y'))});
  EXPECT_GT(big.ApproxBytes(), small.ApproxBytes() + 250);
}

}  // namespace
}  // namespace tchimera

#include "common/value.h"

#include <gtest/gtest.h>

#include <utility>

namespace sieve {
namespace {

TEST(ValueTest, IntComparison) {
  EXPECT_EQ(Value::Int(1).Compare(Value::Int(2)), -1);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(3).Compare(Value::Int(2)), 1);
}

TEST(ValueTest, IntDoubleCrossFamilyComparison) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value::Int(-100)), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
}

TEST(ValueTest, TimeAndDateStayInTheirFamilies) {
  // Time(5) must not equal Int(5): different type families.
  EXPECT_NE(Value::Time(5).Compare(Value::Int(5)), 0);
  EXPECT_NE(Value::Date(5).Compare(Value::Time(5)), 0);
}

TEST(ValueTest, ParseTimeValid) {
  auto t = Value::ParseTime("09:30");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->raw(), 9 * 3600 + 30 * 60);
  auto t2 = Value::ParseTime("23:59:59");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->raw(), 23 * 3600 + 59 * 60 + 59);
}

TEST(ValueTest, ParseTimeInvalid) {
  EXPECT_FALSE(Value::ParseTime("25:00").ok());
  EXPECT_FALSE(Value::ParseTime("abc").ok());
  EXPECT_FALSE(Value::ParseTime("12:61").ok());
}

TEST(ValueTest, ParseDateRoundTrip) {
  auto d = Value::ParseDate("2019-09-25");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->ToString(), "2019-09-25");
  auto epoch = Value::ParseDate("1970-01-01");
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch->raw(), 0);
}

TEST(ValueTest, DateOrdering) {
  auto a = Value::ParseDate("2019-09-25");
  auto b = Value::ParseDate("2019-12-12");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(a->Compare(*b), 0);
}

TEST(ValueTest, TimeToString) {
  EXPECT_EQ(Value::Time(9 * 3600 + 5 * 60 + 7).ToString(), "09:05:07");
}

TEST(ValueTest, SqlLiteralQuoting) {
  EXPECT_EQ(Value::String("O'Brien").ToSqlLiteral(), "'O''Brien'");
  EXPECT_EQ(Value::Int(42).ToSqlLiteral(), "42");
  EXPECT_EQ(Value::Time(3600).ToSqlLiteral(), "'01:00:00'");
}

TEST(ValueTest, HashDistinguishesFamilies) {
  EXPECT_NE(Value::Int(5).Hash(), Value::Time(5).Hash());
}

// Every pair Compare calls equal must hash equal, or hash joins, IN sets,
// UNION/EXCEPT and GROUP BY miss matches an int and a double make.
TEST(ValueTest, EqualNumbersHashEqual) {
  const std::pair<Value, Value> equal[] = {
      {Value::Int(1), Value::Double(1.0)},
      {Value::Int(0), Value::Double(-0.0)},
      {Value::Double(0.0), Value::Double(-0.0)},
      {Value::Int(-7), Value::Double(-7.0)},
      {Value::Int((int64_t{1} << 53) - 1),
       Value::Double(9007199254740991.0)},
      // From 2^53 on, an int compares through its rounded double, so
      // 2^53 + 1 equals the double 2^53 (and so does the int 2^53).
      {Value::Int(int64_t{1} << 53), Value::Double(9007199254740992.0)},
      {Value::Int((int64_t{1} << 53) + 1), Value::Double(9007199254740992.0)},
      {Value::Int(-(int64_t{1} << 53) - 1),
       Value::Double(-9007199254740992.0)},
      {Value::Int(int64_t{1} << 62), Value::Double(4611686018427387904.0)},
  };
  for (const auto& [a, b] : equal) {
    ASSERT_EQ(a.Compare(b), 0) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
  }
  // Unequal values may still collide, but these must not.
  EXPECT_NE(Value::Int(1).Hash(), Value::Double(1.5).Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::Int(2).Hash());
}

TEST(ValueTest, LeapYearDates) {
  auto d = Value::ParseDate("2020-02-29");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->ToString(), "2020-02-29");
  auto next = Value::Date(d->raw() + 1);
  EXPECT_EQ(next.ToString(), "2020-03-01");
}

}  // namespace
}  // namespace sieve

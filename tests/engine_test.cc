#include "engine/database.h"

#include <gtest/gtest.h>

namespace sieve {
namespace {

// Small two-table fixture: events (with indexes) and users.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("events", Schema({{"id", DataType::kInt},
                                                  {"owner", DataType::kInt},
                                                  {"ap", DataType::kInt},
                                                  {"t", DataType::kTime}}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable("users", Schema({{"id", DataType::kInt},
                                                 {"name", DataType::kString}}))
                    .ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_.Insert("events", Row{Value::Int(i), Value::Int(i % 10),
                                           Value::Int(i % 5),
                                           Value::Time((6 + i % 12) * 3600)})
                      .ok());
    }
    for (int u = 0; u < 10; ++u) {
      ASSERT_TRUE(db_.Insert("users", Row{Value::Int(u),
                                          Value::String("user" +
                                                        std::to_string(u))})
                      .ok());
    }
    ASSERT_TRUE(db_.CreateIndex("events", "owner").ok());
    ASSERT_TRUE(db_.CreateIndex("events", "ap").ok());
    ASSERT_TRUE(db_.CreateIndex("events", "t").ok());
    ASSERT_TRUE(db_.Analyze().ok());
  }

  size_t Count(const std::string& sql) {
    auto result = db_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? result->size() : 0;
  }

  Database db_;
};

TEST_F(EngineTest, SelectAll) {
  EXPECT_EQ(Count("SELECT * FROM events"), 100u);
}

TEST_F(EngineTest, FilterEquality) {
  EXPECT_EQ(Count("SELECT * FROM events WHERE owner = 3"), 10u);
}

TEST_F(EngineTest, FilterRange) {
  EXPECT_EQ(Count("SELECT * FROM events WHERE id BETWEEN 10 AND 19"), 10u);
}

TEST_F(EngineTest, FilterInList) {
  EXPECT_EQ(Count("SELECT * FROM events WHERE owner IN (1, 2)"), 20u);
}

TEST_F(EngineTest, TimeLiterals) {
  // Hours 6, 7, 8 <=> i%12 in {0,1,2}: residues 0..2 occur 9 times each in
  // [0, 100).
  EXPECT_EQ(Count("SELECT * FROM events WHERE t BETWEEN '06:00' AND '08:00'"),
            27u);
}

TEST_F(EngineTest, Projection) {
  auto result = db_.ExecuteSql("SELECT owner, ap FROM events WHERE id = 5");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->schema.num_columns(), 2u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 5);
  EXPECT_EQ(result->rows[0][1].AsInt(), 0);
}

TEST_F(EngineTest, AggregateCountStar) {
  auto result = db_.ExecuteSql("SELECT COUNT(*) FROM events WHERE owner = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 10);
}

TEST_F(EngineTest, AggregateEmptyInputYieldsZero) {
  auto result = db_.ExecuteSql("SELECT COUNT(*) FROM events WHERE owner = 999");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 0);
}

TEST_F(EngineTest, GroupBy) {
  auto result = db_.ExecuteSql(
      "SELECT owner, COUNT(*) AS n FROM events GROUP BY owner");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 10u);
  for (const auto& row : result->rows) {
    EXPECT_EQ(row[1].AsInt(), 10);
  }
}

TEST_F(EngineTest, GroupByMinMaxSumAvg) {
  auto result = db_.ExecuteSql(
      "SELECT owner, MIN(id), MAX(id), SUM(id), AVG(id) FROM events "
      "WHERE owner = 2 GROUP BY owner");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows[0][1].AsInt(), 2);
  EXPECT_EQ(result->rows[0][2].AsInt(), 92);
  EXPECT_DOUBLE_EQ(result->rows[0][3].AsDouble(), 470.0);
  EXPECT_DOUBLE_EQ(result->rows[0][4].AsDouble(), 47.0);
}

TEST_F(EngineTest, HashJoin) {
  auto result = db_.ExecuteSql(
      "SELECT * FROM events AS e, users AS u WHERE e.owner = u.id AND u.name "
      "= 'user3'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 10u);
  EXPECT_EQ(result->schema.num_columns(), 6u);
}

TEST_F(EngineTest, QualifiedColumnsAcrossJoin) {
  auto result = db_.ExecuteSql(
      "SELECT e.id, u.name FROM events AS e, users AS u WHERE e.owner = u.id "
      "AND e.id = 42");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows[0][1].AsString(), "user2");
}

TEST_F(EngineTest, CrossJoinWithoutKeys) {
  EXPECT_EQ(Count("SELECT * FROM users AS a, users AS b"), 100u);
}

TEST_F(EngineTest, UnionDedup) {
  EXPECT_EQ(Count("SELECT * FROM events WHERE owner = 1 UNION SELECT * FROM "
                  "events WHERE owner = 1"),
            10u);
}

TEST_F(EngineTest, UnionAllKeepsDuplicates) {
  EXPECT_EQ(Count("SELECT * FROM events WHERE owner = 1 UNION ALL SELECT * "
                  "FROM events WHERE owner = 1"),
            20u);
}

TEST_F(EngineTest, WithClause) {
  EXPECT_EQ(Count("WITH mine AS (SELECT * FROM events WHERE owner = 4) "
                  "SELECT * FROM mine WHERE ap = 4"),
            10u);
}

TEST_F(EngineTest, WithClauseAliasBinding) {
  EXPECT_EQ(Count("WITH mine AS (SELECT * FROM events WHERE owner = 4) "
                  "SELECT * FROM mine AS m WHERE m.ap = 4"),
            10u);
}

TEST_F(EngineTest, RecursiveCteIsABindError) {
  // Regression: the planner put a whole WITH list in scope before planning
  // any body, so a CTE reached from its own body recursed until the stack
  // overflowed.
  const std::pair<const char*, const char*> cases[] = {
      {"WITH x AS (SELECT * FROM x) SELECT * FROM x", "CTE x "},
      {"WITH a AS (SELECT * FROM b), b AS (SELECT * FROM a) "
       "SELECT * FROM events, a",
       "CTE a "},
  };
  for (const auto& [sql, names] : cases) {
    auto result = db_.ExecuteSql(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kBindError) << sql;
    EXPECT_NE(result.status().message().find(names), std::string::npos)
        << result.status().ToString();
    auto explain = db_.ExplainSql(sql);
    ASSERT_FALSE(explain.ok()) << sql;
    EXPECT_EQ(explain.status().code(), StatusCode::kBindError) << sql;
  }
  // A forward reference that is not a cycle still resolves.
  EXPECT_EQ(Count("WITH a AS (SELECT * FROM b WHERE ap = 1), "
                  "b AS (SELECT * FROM events WHERE owner = 1) "
                  "SELECT * FROM a"),
            10u);
}

TEST_F(EngineTest, CteBodyResolvesNamesWhereItIsDefined) {
  // `a` is read from a scope whose own `events` CTE shadows the table;
  // a's body still reads the events table.
  EXPECT_EQ(Count("WITH a AS (SELECT * FROM events WHERE owner = 1) "
                  "SELECT * FROM (WITH events AS (SELECT * FROM users) "
                  "SELECT * FROM a) AS d"),
            10u);
}

TEST_F(EngineTest, ExplainListsCteBodyOncePerDefinition) {
  // A CTE body is planned once, however often the query reads it.
  auto explain = db_.ExplainSql(
      "WITH mine AS (SELECT * FROM events WHERE owner = 4) "
      "SELECT * FROM mine WHERE ap = 4 UNION SELECT * FROM mine");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->tables.size(), 1u) << explain->ToString();
}

TEST_F(EngineTest, DerivedTable) {
  EXPECT_EQ(
      Count("SELECT * FROM (SELECT * FROM events WHERE owner = 1) AS sub "
            "WHERE sub.ap = 1"),
      10u);
}

TEST_F(EngineTest, IndexHintsDoNotChangeResults) {
  size_t base = Count("SELECT * FROM events WHERE owner = 5");
  EXPECT_EQ(Count("SELECT * FROM events FORCE INDEX (owner) WHERE owner = 5"),
            base);
  EXPECT_EQ(Count("SELECT * FROM events USE INDEX () WHERE owner = 5"), base);
}

TEST_F(EngineTest, ScalarSubqueryUncorrelated) {
  auto result = db_.ExecuteSql(
      "SELECT * FROM events WHERE id = (SELECT MAX(id) FROM events)");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 99);
}

TEST_F(EngineTest, ScalarSubqueryCorrelated) {
  // Events whose ap equals the ap of event id 7 (which is 2).
  auto result = db_.ExecuteSql(
      "SELECT * FROM events AS e WHERE e.ap = (SELECT f.ap FROM events AS f "
      "WHERE f.id = 7) AND e.owner = 7");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 10u);  // owner 7 rows all have ap = 2
}

TEST_F(EngineTest, DeleteMaintainsIndexes) {
  ASSERT_TRUE(db_.Delete("events", 0).ok());
  EXPECT_EQ(Count("SELECT * FROM events WHERE owner = 0"), 9u);
  EXPECT_EQ(Count("SELECT * FROM events FORCE INDEX (owner) WHERE owner = 0"),
            9u);
}

TEST_F(EngineTest, InsertMaintainsIndexes) {
  ASSERT_TRUE(db_.Insert("events", Row{Value::Int(1000), Value::Int(3),
                                       Value::Int(0), Value::Time(0)})
                  .ok());
  EXPECT_EQ(Count("SELECT * FROM events FORCE INDEX (owner) WHERE owner = 3"),
            11u);
}

TEST_F(EngineTest, ExplainReportsAccessPath) {
  auto explain = db_.ExplainSql("SELECT * FROM events WHERE owner = 1");
  ASSERT_TRUE(explain.ok());
  ASSERT_EQ(explain->tables.size(), 1u);
  EXPECT_EQ(explain->tables[0].kind, AccessPathInfo::Kind::kIndexRange);
  EXPECT_EQ(explain->tables[0].index_column, "owner");
  EXPECT_NEAR(explain->tables[0].selectivity, 0.1, 0.03);
}

TEST_F(EngineTest, ExplainSeqScanWithoutPredicate) {
  auto explain = db_.ExplainSql("SELECT * FROM events");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->tables[0].kind, AccessPathInfo::Kind::kSeqScan);
}

TEST_F(EngineTest, UdfRegistrationAndCall) {
  ASSERT_TRUE(db_.udfs()
                  .Register("always_true",
                            [](const std::vector<Value>&, UdfContext&)
                                -> Result<Value> { return Value::Bool(true); })
                  .ok());
  EXPECT_EQ(Count("SELECT * FROM events WHERE always_true() = true"), 100u);
  EXPECT_FALSE(db_.ExecuteSql("SELECT * FROM events WHERE nosuch() = true").ok());
}

TEST_F(EngineTest, StatsCounters) {
  auto result = db_.ExecuteSql("SELECT * FROM events USE INDEX () WHERE owner = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.tuples_scanned, 100u);
  auto indexed =
      db_.ExecuteSql("SELECT * FROM events FORCE INDEX (owner) WHERE owner = 1");
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(indexed->stats.index_probe_rows, 10u);
}

TEST_F(EngineTest, ErrorOnUnknownTable) {
  EXPECT_FALSE(db_.ExecuteSql("SELECT * FROM nope").ok());
}

TEST_F(EngineTest, ErrorOnUnknownColumn) {
  EXPECT_FALSE(db_.ExecuteSql("SELECT * FROM events WHERE nope = 1").ok());
}

TEST(EngineProfileTest, PostgresIgnoresHints) {
  Database db(EngineProfile::PostgresLike());
  ASSERT_TRUE(db.CreateTable("t", Schema({{"a", DataType::kInt}})).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Insert("t", Row{Value::Int(i)}).ok());
  }
  ASSERT_TRUE(db.CreateIndex("t", "a").ok());
  ASSERT_TRUE(db.Analyze().ok());
  // USE INDEX () would force a seq scan on MySQL-like engines; the
  // postgres-like profile ignores it and picks the index.
  auto explain = db.ExplainSql("SELECT * FROM t USE INDEX () WHERE a = 3");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->tables[0].kind, AccessPathInfo::Kind::kIndexRange);
}

TEST(EngineProfileTest, BitmapOrOnPostgres) {
  Database db(EngineProfile::PostgresLike());
  ASSERT_TRUE(db.CreateTable("t", Schema({{"a", DataType::kInt},
                                          {"b", DataType::kInt}}))
                  .ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db.Insert("t", Row{Value::Int(i), Value::Int(i % 7)}).ok());
  }
  ASSERT_TRUE(db.CreateIndex("t", "a").ok());
  ASSERT_TRUE(db.Analyze().ok());
  auto explain =
      db.ExplainSql("SELECT * FROM t WHERE (a = 1 AND b = 0) OR (a = 500) OR "
                    "(a BETWEEN 10 AND 20)");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->tables[0].kind, AccessPathInfo::Kind::kIndexUnion);
  auto result = db.ExecuteSql(
      "SELECT * FROM t WHERE (a = 1 AND b = 0) OR (a = 500) OR (a BETWEEN 10 "
      "AND 20)");
  ASSERT_TRUE(result.ok());
  // a=1 has b=1 so the first disjunct rejects it; a=500 contributes 1 row
  // and the 10..20 range contributes 11.
  EXPECT_EQ(result->size(), 12u);
}

TEST(EngineTimeoutTest, TimesOut) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", Schema({{"a", DataType::kInt}})).ok());
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(db.Insert("t", Row{Value::Int(i)}).ok());
  }
  // Cross join of 20000 x 20000 rows cannot finish in 1 ms.
  auto result = db.ExecuteSql(
      "SELECT COUNT(*) FROM t AS a, t AS b WHERE a.a < b.a", nullptr,
      /*timeout_seconds=*/0.001);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

}  // namespace
}  // namespace sieve

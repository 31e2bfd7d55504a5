#include "engine/database.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

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

// t(id, val = id % 100) with 1,000 rows, and u(v, d = v) with 100 rows, an
// int and a double column holding the same numbers.
class NumericJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("t", Schema({{"id", DataType::kInt},
                                             {"val", DataType::kInt}}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable("u", Schema({{"v", DataType::kInt},
                                             {"d", DataType::kDouble}}))
                    .ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(
          db_.Insert("t", Row{Value::Int(i), Value::Int(i % 100)}).ok());
    }
    for (int v = 0; v < 100; ++v) {
      ASSERT_TRUE(db_.Insert("u", Row{Value::Int(v), Value::Double(v)}).ok());
    }
  }

  ResultSet Run(const std::string& sql) {
    auto result = db_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : ResultSet();
  }

  static std::vector<std::string> Fingerprints(const ResultSet& rs) {
    std::vector<std::string> out;
    for (const Row& row : rs.rows) out.push_back(RowFingerprint(row));
    return out;
  }

  Database db_;
};

TEST_F(NumericJoinTest, IntEqualsDoubleAcrossOperators) {
  // Value::Compare calls Int(5) and Double(5.0) equal, so every hashed
  // path must match them too.
  EXPECT_EQ(Run("SELECT * FROM t, u WHERE t.val = u.d").size(), 1000u);
  EXPECT_EQ(Run("WITH c AS (SELECT * FROM t) "
                "SELECT * FROM c, u WHERE c.val = u.d")
                .size(),
            1000u);
  EXPECT_EQ(Run("SELECT * FROM u WHERE d IN (1, 2)").size(), 2u);
  EXPECT_EQ(Run("SELECT * FROM u WHERE d = 1 OR d = 2").size(), 2u);
  EXPECT_EQ(Run("SELECT v FROM u WHERE v < 3 UNION "
                "SELECT d FROM u WHERE d < 3")
                .size(),
            3u);
  EXPECT_EQ(Run("SELECT v FROM u WHERE v < 3 EXCEPT "
                "SELECT d FROM u WHERE d < 3")
                .size(),
            0u);
}

TEST_F(NumericJoinTest, GroupByKeepsDistinctDoublesApart) {
  // Doubles that print alike under %g are still distinct group keys.
  ASSERT_TRUE(db_.CreateTable("m", Schema({{"d", DataType::kDouble}})).ok());
  const double values[] = {1234567, 1234568, 1234569, 0.1, 0.1000001};
  for (double d : values) {
    ASSERT_TRUE(db_.Insert("m", Row{Value::Double(d)}).ok());
  }
  ResultSet groups = Run("SELECT d, COUNT(*) AS n FROM m GROUP BY d");
  ASSERT_EQ(groups.size(), 5u);
  for (size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups.rows[i][0].AsDouble(), values[i]);
    EXPECT_EQ(groups.rows[i][1].AsInt(), 1);
  }
}

TEST_F(NumericJoinTest, GroupByMergesEqualIntsAndDoubles) {
  // An int and a double of equal value share a group, which keeps its
  // first occurrence's type.
  ResultSet groups = Run(
      "SELECT x, COUNT(*) AS n FROM (SELECT v AS x FROM u WHERE v < 2 "
      "UNION ALL SELECT d AS x FROM u WHERE d < 2) AS s GROUP BY x");
  ASSERT_EQ(groups.size(), 2u);
  for (int64_t x = 0; x < 2; ++x) {
    EXPECT_EQ(groups.rows[x][0].type(), DataType::kInt);
    EXPECT_EQ(groups.rows[x][0].AsInt(), x);
    EXPECT_EQ(groups.rows[x][1].AsInt(), 2);
  }
}

TEST_F(NumericJoinTest, JoinThroughCteOrDerivedTableIsAHashJoin) {
  // With t behind a CTE or a derived table, the planner still sees its
  // columns, so the equi-join hashes: the residual filter compares only
  // the 1,000 matching pairs instead of the 100,000-pair product, and rows
  // and row order equal the base-table join's. u.v is an int key, u.d a
  // double one.
  for (const std::string col : {"v", "d"}) {
    const std::pair<std::string, std::string> cases[] = {
        {"SELECT * FROM t, u WHERE t.val = u." + col,
         "WITH c AS (SELECT * FROM t) SELECT * FROM c, u WHERE c.val = u." +
             col},
        {"SELECT * FROM t, u WHERE t.val = u." + col,
         "SELECT * FROM (SELECT * FROM t) AS s, u WHERE s.val = u." + col},
        {"SELECT * FROM u, t WHERE t.val = u." + col,
         "SELECT * FROM u, (SELECT * FROM t) AS s WHERE s.val = u." + col},
    };
    for (const auto& [base_sql, sql] : cases) {
      ResultSet base = Run(base_sql);
      ResultSet wrapped = Run(sql);
      EXPECT_EQ(base.size(), 1000u) << base_sql;
      EXPECT_EQ(Fingerprints(wrapped), Fingerprints(base)) << sql;
      EXPECT_EQ(base.stats.comparisons, 1000u) << base_sql;
      EXPECT_EQ(wrapped.stats.comparisons, 1000u) << sql;
    }
  }
}

TEST_F(NumericJoinTest, SetOpArmWidthMismatchIsABindError) {
  const char* sqls[] = {
      "SELECT id FROM t UNION SELECT v, d FROM u",
      "SELECT id FROM t EXCEPT SELECT v, d FROM u",
  };
  for (const char* sql : sqls) {
    auto explain = db_.ExplainSql(sql);
    ASSERT_FALSE(explain.ok()) << sql;
    EXPECT_EQ(explain.status().code(), StatusCode::kBindError) << sql;
    auto result = db_.ExecuteSql(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kBindError) << sql;
  }
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

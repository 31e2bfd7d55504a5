#include "expr/expr.h"

#include <gtest/gtest.h>

#include "expr/eval.h"
#include "parser/parser.h"
#include "plan/row_batch.h"

namespace sieve {
namespace {

Schema TestSchema() {
  return Schema({{"owner", DataType::kInt},
                 {"wifiAP", DataType::kInt},
                 {"ts_time", DataType::kTime},
                 {"ts_date", DataType::kDate},
                 {"name", DataType::kString}});
}

Row TestRow() {
  return Row{Value::Int(7), Value::Int(1200), Value::Time(9 * 3600 + 1800),
             Value::Date(18000), Value::String("john")};
}

class ExprEvalTest : public ::testing::Test {
 protected:
  Result<Value> Eval(const std::string& text) {
    auto expr = Parser::ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << text;
    Status bound = BindExpr(expr->get(), schema_);
    EXPECT_TRUE(bound.ok()) << bound.ToString();
    Evaluator evaluator(&schema_, nullptr, nullptr, &stats_);
    return evaluator.Eval(**expr, row_);
  }

  bool EvalBool(const std::string& text) {
    auto v = Eval(text);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return !v->is_null() && v->AsBool();
  }

  Schema schema_ = TestSchema();
  Row row_ = TestRow();
  ExecStats stats_;
};

TEST_F(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(EvalBool("owner = 7"));
  EXPECT_FALSE(EvalBool("owner = 8"));
  EXPECT_TRUE(EvalBool("owner != 8"));
  EXPECT_TRUE(EvalBool("wifiAP >= 1200"));
  EXPECT_FALSE(EvalBool("wifiAP > 1200"));
  EXPECT_TRUE(EvalBool("owner < 100"));
}

TEST_F(ExprEvalTest, TimeCoercion) {
  // The binder coerces '09:00' to a Time value for the ts_time column.
  EXPECT_TRUE(EvalBool("ts_time >= '09:00'"));
  EXPECT_TRUE(EvalBool("ts_time BETWEEN '09:00' AND '10:00'"));
  EXPECT_FALSE(EvalBool("ts_time BETWEEN '10:00' AND '11:00'"));
}

TEST_F(ExprEvalTest, DateCoercion) {
  std::string date = Value::Date(18000).ToString();
  EXPECT_TRUE(EvalBool("ts_date = '" + date + "'"));
}

TEST_F(ExprEvalTest, InList) {
  EXPECT_TRUE(EvalBool("wifiAP IN (1100, 1200, 1300)"));
  EXPECT_FALSE(EvalBool("wifiAP IN (1, 2)"));
  EXPECT_TRUE(EvalBool("wifiAP NOT IN (1, 2)"));
}

TEST_F(ExprEvalTest, BooleanConnectives) {
  EXPECT_TRUE(EvalBool("owner = 7 AND wifiAP = 1200"));
  EXPECT_FALSE(EvalBool("owner = 7 AND wifiAP = 1"));
  EXPECT_TRUE(EvalBool("owner = 0 OR wifiAP = 1200"));
  EXPECT_TRUE(EvalBool("NOT owner = 8"));
}

TEST_F(ExprEvalTest, StringCompare) {
  EXPECT_TRUE(EvalBool("name = 'john'"));
  EXPECT_FALSE(EvalBool("name = 'John'"));  // case sensitive values
}

TEST_F(ExprEvalTest, ComparisonCounterIncrements) {
  stats_ = ExecStats();
  EvalBool("owner = 7 AND wifiAP = 1200");
  EXPECT_EQ(stats_.comparisons, 2u);
}

TEST_F(ExprEvalTest, OrShortCircuits) {
  stats_ = ExecStats();
  EvalBool("owner = 7 OR wifiAP = 1200 OR name = 'john'");
  EXPECT_EQ(stats_.comparisons, 1u);  // first disjunct matched
}

TEST_F(ExprEvalTest, UnknownColumnFailsBinding) {
  auto expr = Parser::ParseExpression("nosuch = 1");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(BindExpr(expr->get(), schema_).ok());
}

TEST(ExprBindTest, QualifiedSuffixMatching) {
  Schema qualified({{"W.owner", DataType::kInt}, {"W.wifiAP", DataType::kInt}});
  auto plain = Parser::ParseExpression("owner = 1");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(BindExpr(plain->get(), qualified).ok());

  auto exact = Parser::ParseExpression("W.owner = 1");
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(BindExpr(exact->get(), qualified).ok());

  auto wrong_qual = Parser::ParseExpression("X.owner = 1");
  ASSERT_TRUE(wrong_qual.ok());
  EXPECT_FALSE(BindExpr(wrong_qual->get(), qualified).ok());
}

TEST(ExprBindTest, AmbiguousSuffixRejected) {
  Schema joined({{"W.id", DataType::kInt}, {"U.id", DataType::kInt}});
  auto plain = Parser::ParseExpression("id = 1");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(BindExpr(plain->get(), joined).ok());
  auto qualified = Parser::ParseExpression("U.id = 1");
  ASSERT_TRUE(qualified.ok());
  EXPECT_TRUE(BindExpr(qualified->get(), joined).ok());
}

TEST(ExprUtilTest, FlattenConjuncts) {
  auto expr = Parser::ParseExpression("a = 1 AND b = 2 AND (c = 3 OR d = 4)");
  ASSERT_TRUE(expr.ok());
  std::vector<ExprPtr> out;
  FlattenConjuncts(*expr, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2]->kind(), ExprKind::kOr);
}

TEST(ExprUtilTest, MakeAndOrSimplify) {
  EXPECT_EQ(MakeAnd({})->kind(), ExprKind::kLiteral);
  ExprPtr single = MakeColumnCompare("a", CompareOp::kEq, Value::Int(1));
  EXPECT_EQ(MakeAnd({single}), single);
  EXPECT_EQ(MakeOr({})->kind(), ExprKind::kLiteral);
}

TEST(ExprUtilTest, CloneIsDeep) {
  auto expr = Parser::ParseExpression("a = 1 AND b BETWEEN 2 AND 3");
  ASSERT_TRUE(expr.ok());
  ExprPtr clone = (*expr)->Clone();
  EXPECT_TRUE(ExprEquals(**expr, *clone));
  EXPECT_NE(expr->get(), clone.get());
}

TEST(ExprUtilTest, ToSqlRoundTrips) {
  const char* cases[] = {
      "owner = 7",
      "a = 1 AND (b = 2 OR c = 3)",
      "x BETWEEN 1 AND 10",
      "y IN (1, 2, 3)",
      "NOT (a = 1)",
      "delta(42) = true",
  };
  for (const char* text : cases) {
    auto expr = Parser::ParseExpression(text);
    ASSERT_TRUE(expr.ok()) << text;
    auto reparsed = Parser::ParseExpression((*expr)->ToSql());
    ASSERT_TRUE(reparsed.ok()) << (*expr)->ToSql();
    EXPECT_TRUE(ExprEquals(**expr, **reparsed)) << text;
  }
}

// Evaluates `text` over `rows` through EvalPredicateBatch on a RowBatch and
// asserts verdicts + ExecStats match per-row EvalPredicate exactly.
void ExpectColumnarMatchesRows(const Schema& schema,
                               const std::vector<Row>& rows,
                               const std::string& text) {
  auto expr = Parser::ParseExpression(text);
  ASSERT_TRUE(expr.ok()) << text;
  ASSERT_TRUE(BindExpr(expr->get(), schema).ok()) << text;

  ExecStats row_stats;
  Evaluator row_eval(&schema, nullptr, nullptr, &row_stats);
  std::vector<uint8_t> expected;
  for (const Row& row : rows) {
    auto verdict = row_eval.EvalPredicate(**expr, row);
    ASSERT_TRUE(verdict.ok()) << text;
    expected.push_back(*verdict ? 1 : 0);
  }

  RowBatch batch(rows.size() == 0 ? 1 : rows.size());
  for (const Row& row : rows) {
    Row copy = row;
    batch.PushRow(std::move(copy));
  }
  ExecStats batch_stats;
  Evaluator batch_eval(&schema, nullptr, nullptr, &batch_stats);
  std::vector<uint8_t> got;
  ASSERT_TRUE(batch_eval.EvalPredicateBatch(**expr, batch, &got).ok()) << text;

  EXPECT_EQ(got, expected) << text;
  EXPECT_EQ(batch_stats, row_stats)
      << text << " row=" << row_stats.ToString()
      << " batch=" << batch_stats.ToString();
}

// Differential contract of the vectorized predicate path: for any batch
// of rows (NULL-riddled included), EvalPredicateBatch must produce the
// exact per-row verdicts of EvalPredicate AND the exact ExecStats
// comparison counts — the active-set narrowing of AND/OR has to mirror
// row-at-a-time short-circuiting (node, row) pair for pair.
TEST(EvalPredicateBatchTest, MatchesRowAtATimeVerdictsAndStats) {
  Schema schema({{"a", DataType::kInt},
                 {"b", DataType::kInt},
                 {"s", DataType::kString}});
  std::vector<Row> rows;
  for (int i = 0; i < 57; ++i) {
    Row row;
    row.push_back(i % 11 == 0 ? Value::Null() : Value::Int(i % 7));
    row.push_back(i % 13 == 0 ? Value::Null() : Value::Int(i % 5));
    row.push_back(Value::String("x" + std::to_string(i % 4)));
    rows.push_back(std::move(row));
  }

  const char* predicates[] = {
      "a = 3",
      "a < b",
      "a = 3 AND b = 2",
      "a = 3 OR b = 2 OR a = 5",
      "NOT (a = 3)",
      "a BETWEEN 2 AND 5",
      "a IN (1, 2, 3)",
      "a IN (1, 2, 3) AND NOT (b = 0 OR s = 'x2')",
      "s = 'x3'",
      "a = 1 OR (b = 2 AND s = 'x1') OR a BETWEEN 5 AND 6",
  };
  for (const char* text : predicates) {
    ExpectColumnarMatchesRows(schema, rows, text);
  }
}

// The typed comparison kernels (int/double/string/time columns, constants
// on either side, column-vs-column, NULL-heavy and all-NULL inputs) must
// reproduce Value::Compare verdict for verdict over every operator.
TEST(EvalPredicateBatchTest, ColumnarKernelsCoverEveryComparisonOperator) {
  Schema schema({{"i", DataType::kInt},
                 {"j", DataType::kInt},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"t", DataType::kTime},
                 {"z", DataType::kInt}});  // all-NULL column
  std::vector<Row> rows;
  for (int k = 0; k < 77; ++k) {
    Row row;
    row.push_back(k % 9 == 0 ? Value::Null() : Value::Int(k % 6));
    row.push_back(k % 7 == 0 ? Value::Null() : Value::Int(k % 4));
    row.push_back(k % 5 == 0 ? Value::Null() : Value::Double(k * 0.25));
    row.push_back(k % 6 == 0 ? Value::Null()
                             : Value::String("s" + std::to_string(k % 3)));
    row.push_back(Value::Time((6 + k % 12) * 3600));
    row.push_back(Value::Null());
    rows.push_back(std::move(row));
  }

  const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
  for (const char* op : ops) {
    std::string o = op;
    // Column vs constant, both orders; every payload type.
    ExpectColumnarMatchesRows(schema, rows, "i " + o + " 3");
    ExpectColumnarMatchesRows(schema, rows, "3 " + o + " i");
    ExpectColumnarMatchesRows(schema, rows, "d " + o + " 7.5");
    ExpectColumnarMatchesRows(schema, rows, "7.5 " + o + " d");
    ExpectColumnarMatchesRows(schema, rows, "s " + o + " 's1'");
    ExpectColumnarMatchesRows(schema, rows, "t " + o + " '09:00'");
    // Int column vs double constant (mixed-family numeric comparison).
    ExpectColumnarMatchesRows(schema, rows, "i " + o + " 2.5");
    // Column vs column: same type and mixed int/double.
    ExpectColumnarMatchesRows(schema, rows, "i " + o + " j");
    ExpectColumnarMatchesRows(schema, rows, "i " + o + " d");
    // All-NULL column and cross-family operands.
    ExpectColumnarMatchesRows(schema, rows, "z " + o + " 1");
    ExpectColumnarMatchesRows(schema, rows, "s " + o + " 5");
    // Constant vs constant folds to one broadcast verdict.
    ExpectColumnarMatchesRows(schema, rows, "2 " + o + " 3");
  }

  // BETWEEN / IN / boolean composition over the same NULL-heavy data.
  ExpectColumnarMatchesRows(schema, rows, "i BETWEEN 1 AND 4");
  ExpectColumnarMatchesRows(schema, rows, "d BETWEEN 2.0 AND 9.0");
  ExpectColumnarMatchesRows(schema, rows, "i IN (0, 2, 5)");
  ExpectColumnarMatchesRows(schema, rows, "z IN (1, 2)");
  ExpectColumnarMatchesRows(schema, rows,
                            "i < j AND (d > 3.0 OR s = 's0') AND NOT (i = 2)");
}

// Chained filtering through selection vectors: narrowing a batch and
// evaluating the next predicate over the survivors must agree with
// running both predicates row-at-a-time — including the comparison
// counts, which only cover still-active rows.
TEST(EvalPredicateBatchTest, SelectionVectorChainMatchesRowAtATime) {
  Schema schema({{"a", DataType::kInt},
                 {"b", DataType::kDouble},
                 {"s", DataType::kString}});
  std::vector<Row> rows;
  for (int k = 0; k < 101; ++k) {
    Row row;
    row.push_back(k % 8 == 0 ? Value::Null() : Value::Int(k % 10));
    row.push_back(k % 3 == 0 ? Value::Null() : Value::Double(k * 0.5));
    row.push_back(Value::String("g" + std::to_string(k % 5)));
    rows.push_back(std::move(row));
  }
  const std::string stages[] = {"a >= 2", "b < 30.0 OR s = 'g1'",
                                "NOT (a = 7) AND a IN (2, 3, 5, 8)"};

  // Row-at-a-time reference: apply each stage to the survivors of the
  // previous one.
  ExecStats row_stats;
  Evaluator row_eval(&schema, nullptr, nullptr, &row_stats);
  std::vector<Row> surviving = rows;
  std::vector<std::vector<std::string>> expected_stage_rows;
  for (const std::string& text : stages) {
    auto expr = Parser::ParseExpression(text);
    ASSERT_TRUE(expr.ok()) << text;
    ASSERT_TRUE(BindExpr(expr->get(), schema).ok()) << text;
    std::vector<Row> next;
    for (const Row& row : surviving) {
      auto verdict = row_eval.EvalPredicate(**expr, row);
      ASSERT_TRUE(verdict.ok()) << text;
      if (*verdict) next.push_back(row);
    }
    surviving = std::move(next);
    std::vector<std::string> fps;
    for (const Row& row : surviving) {
      std::string fp;
      for (const Value& v : row) fp += v.ToString() + "|";
      fps.push_back(std::move(fp));
    }
    expected_stage_rows.push_back(std::move(fps));
  }

  // Columnar path: one batch, narrowed in place after each stage.
  ExecStats batch_stats;
  Evaluator batch_eval(&schema, nullptr, nullptr, &batch_stats);
  RowBatch batch(rows.size());
  for (const Row& row : rows) {
    Row copy = row;
    batch.PushRow(std::move(copy));
  }
  for (size_t stage = 0; stage < 3; ++stage) {
    auto expr = Parser::ParseExpression(stages[stage]);
    ASSERT_TRUE(expr.ok());
    ASSERT_TRUE(BindExpr(expr->get(), schema).ok());
    std::vector<uint8_t> pass;
    ASSERT_TRUE(batch_eval.EvalPredicateBatch(**expr, batch, &pass).ok());
    batch.NarrowToPassing(pass.data());
    if (stage > 0) {
      EXPECT_NE(batch.selection(), nullptr) << "stage " << stage;
    }
    std::vector<std::string> fps;
    for (size_t k = 0; k < batch.size(); ++k) {
      Row row;
      batch.MaterializeRow(k, &row);
      std::string fp;
      for (const Value& v : row) fp += v.ToString() + "|";
      fps.push_back(std::move(fp));
    }
    EXPECT_EQ(fps, expected_stage_rows[stage]) << "stage " << stage;
  }
  EXPECT_EQ(batch_stats, row_stats)
      << " row=" << row_stats.ToString()
      << " batch=" << batch_stats.ToString();
}

}  // namespace
}  // namespace sieve

#ifndef SIEVE_PARSER_AST_H_
#define SIEVE_PARSER_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"

namespace sieve {

struct SelectStmt;
using SelectStmtPtr = std::shared_ptr<SelectStmt>;

/// Aggregate functions supported in the SELECT list.
enum class AggFn { kNone, kCount, kCountStar, kSum, kAvg, kMin, kMax };

const char* AggFnName(AggFn fn);

/// One SELECT-list item: plain expression or aggregate over an expression.
struct SelectItem {
  ExprPtr expr;       // null for COUNT(*)
  AggFn agg = AggFn::kNone;
  std::string alias;  // output column name; derived when empty

  std::string ToSql() const;
  /// Output column name: alias, else the expression rendering.
  std::string OutputName() const;
};

/// Index usage hints — the extensibility feature Sieve leans on in MySQL-like
/// engines (Section 5.3): FORCE INDEX(col...) pins the access path to an
/// index; USE INDEX() tells the optimizer to ignore all indexes (linear scan).
struct IndexHint {
  enum class Kind { kNone, kForceIndex, kIgnoreAllIndexes };
  Kind kind = Kind::kNone;
  std::vector<std::string> columns;  // indexed columns for kForceIndex

  std::string ToSql() const;
};

/// FROM-clause entry: base table or derived table (subquery), with alias and
/// optional index hint.
struct TableRef {
  std::string table_name;   // empty for derived tables
  SelectStmtPtr subquery;   // non-null for derived tables
  std::string alias;        // may be empty for base tables
  IndexHint hint;

  std::string EffectiveName() const {
    return alias.empty() ? table_name : alias;
  }
  std::string ToSql() const;
};

/// WITH-clause entry.
struct CommonTableExpr {
  std::string name;
  SelectStmtPtr query;
};

/// Set operation linking two SELECT cores.
enum class SetOpKind {
  kUnion,     ///< UNION (distinct)
  kUnionAll,  ///< UNION ALL
  kExcept,    ///< EXCEPT / MINUS — the non-monotonic operator of §3.1
};

/// A (possibly compound) SELECT statement:
///   [WITH ctes] SELECT items FROM refs [WHERE e] [GROUP BY cols]
///   [{UNION [ALL] | EXCEPT | MINUS} select]
struct SelectStmt {
  std::vector<CommonTableExpr> ctes;
  bool select_star = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;                    // may be null
  std::vector<ExprPtr> group_by;    // column refs
  SelectStmtPtr union_next;         // chained set-op arm
  bool union_all = false;           // legacy view of set_op (kUnionAll)
  SetOpKind set_op = SetOpKind::kUnion;  // link kind to union_next

  bool HasAggregates() const;
  std::string ToSql() const;

  /// Deep copy (expressions cloned, nested statements cloned recursively).
  SelectStmtPtr Clone() const;
};

/// The parameter signature of a parsed statement: one entry per slot, in
/// slot order — the lower-cased name for `:name` parameters, "" for
/// positional `?`. Fails on inconsistent slot numbering (never produced by
/// the parser; guards against hand-built ASTs).
Result<std::vector<std::string>> CollectParameterSlots(const SelectStmt& stmt);

/// SQL text of every scalar subquery written in the statement's
/// expressions (select items, WHERE and GROUP BY of every set-op arm, CTE
/// body and derived table), in walk order. Subqueries nested inside those
/// texts are left unparsed.
std::vector<std::string> CollectSubqueryTexts(const SelectStmt& stmt);

/// Replaces every ParameterExpr in the statement (WHERE clauses, select
/// items, GROUP BY, CTE bodies, derived tables, set-op arms) with the
/// literal `params[slot]`. The statement must be a private clone — callers
/// must not bind a shared template in place. Fails with kBindError when a
/// slot has no value.
Status BindParameters(SelectStmt* stmt, const std::vector<Value>& params);

}  // namespace sieve

#endif  // SIEVE_PARSER_AST_H_

#ifndef SIEVE_EXPR_EXPR_H_
#define SIEVE_EXPR_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/schema.h"

namespace sieve {

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kParameter,
  kComparison,
  kBetween,
  kInList,
  kAnd,
  kOr,
  kNot,
  kUdfCall,
  kSubquery,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpSymbol(CompareOp op);
/// Parses "=", "!=", "<>", "<", "<=", ">", ">=" into a CompareOp.
Result<CompareOp> ParseCompareOp(const std::string& symbol);

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Base class for scalar/boolean expression trees. Expressions are built by
/// the parser, by the Sieve rewriter (policy predicates, guards) and by the
/// workload generators; the same evaluator runs them all.
class Expr {
 public:
  explicit Expr(ExprKind kind) : kind_(kind) {}
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }

  /// SQL rendering; round-trips through the parser.
  virtual std::string ToSql() const = 0;

  /// Deep copy.
  virtual ExprPtr Clone() const = 0;

 private:
  ExprKind kind_;
};

/// Constant value.
class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value v) : Expr(ExprKind::kLiteral), value_(std::move(v)) {}

  const Value& value() const { return value_; }
  /// Used by the binder to coerce string literals to time/date column types.
  void set_value(Value v) { value_ = std::move(v); }

  std::string ToSql() const override { return value_.ToSqlLiteral(); }
  ExprPtr Clone() const override { return std::make_shared<LiteralExpr>(value_); }

 private:
  Value value_;
};

/// Reference to a column, optionally qualified ("W.owner"). The binder
/// resolves it to an offset in the input schema.
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(std::string qualifier, std::string name)
      : Expr(ExprKind::kColumnRef),
        qualifier_(std::move(qualifier)),
        name_(std::move(name)) {}

  const std::string& qualifier() const { return qualifier_; }
  const std::string& name() const { return name_; }
  /// "qualifier.name" or "name".
  std::string FullName() const {
    return qualifier_.empty() ? name_ : qualifier_ + "." + name_;
  }

  int bound_index() const { return bound_index_; }
  void set_bound_index(int idx) { bound_index_ = idx; }

  std::string ToSql() const override { return FullName(); }
  ExprPtr Clone() const override {
    // bound_index_ is intentionally not copied: clones are routinely rebound
    // against different schemas (CTE bodies, join outputs).
    return std::make_shared<ColumnRefExpr>(qualifier_, name_);
  }

 private:
  std::string qualifier_;
  std::string name_;
  int bound_index_ = -1;
};

/// Query parameter placeholder: positional `?` or named `:name`. Slots are
/// assigned by the parser (each `?` gets a fresh slot, every occurrence of
/// the same `:name` shares one); BindParameters replaces the node with a
/// literal at execute time, so downstream layers (optimizer, evaluator)
/// never see one in a bound statement. Evaluating an unbound parameter is
/// an execution error.
class ParameterExpr : public Expr {
 public:
  ParameterExpr(size_t slot, std::string name)
      : Expr(ExprKind::kParameter), slot_(slot), name_(std::move(name)) {}

  /// Zero-based position in the prepared query's parameter list.
  size_t slot() const { return slot_; }
  /// Lower-cased name for `:name` parameters; empty for positional `?`.
  const std::string& name() const { return name_; }

  std::string ToSql() const override {
    return name_.empty() ? "?" : ":" + name_;
  }
  ExprPtr Clone() const override {
    // Slot and name are preserved: the rewriter clones parameterized
    // predicates into CTE bodies, and every copy must bind the same value.
    return std::make_shared<ParameterExpr>(slot_, name_);
  }

 private:
  size_t slot_;
  std::string name_;
};

/// left op right.
class ComparisonExpr : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kComparison),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  ExprPtr& mutable_left() { return left_; }
  ExprPtr& mutable_right() { return right_; }

  std::string ToSql() const override;
  ExprPtr Clone() const override {
    return std::make_shared<ComparisonExpr>(op_, left_->Clone(),
                                            right_->Clone());
  }

 private:
  CompareOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// input BETWEEN lo AND hi (inclusive).
class BetweenExpr : public Expr {
 public:
  BetweenExpr(ExprPtr input, ExprPtr lo, ExprPtr hi)
      : Expr(ExprKind::kBetween),
        input_(std::move(input)),
        lo_(std::move(lo)),
        hi_(std::move(hi)) {}

  const ExprPtr& input() const { return input_; }
  const ExprPtr& lo() const { return lo_; }
  const ExprPtr& hi() const { return hi_; }
  ExprPtr& mutable_input() { return input_; }
  ExprPtr& mutable_lo() { return lo_; }
  ExprPtr& mutable_hi() { return hi_; }

  std::string ToSql() const override;
  ExprPtr Clone() const override {
    return std::make_shared<BetweenExpr>(input_->Clone(), lo_->Clone(),
                                         hi_->Clone());
  }

 private:
  ExprPtr input_;
  ExprPtr lo_;
  ExprPtr hi_;
};

/// input [NOT] IN (item, item, ...).
class InListExpr : public Expr {
 public:
  InListExpr(ExprPtr input, std::vector<ExprPtr> items, bool negated)
      : Expr(ExprKind::kInList),
        input_(std::move(input)),
        items_(std::move(items)),
        negated_(negated) {}

  const ExprPtr& input() const { return input_; }
  const std::vector<ExprPtr>& items() const { return items_; }
  bool negated() const { return negated_; }
  ExprPtr& mutable_input() { return input_; }
  std::vector<ExprPtr>& mutable_items() { return items_; }

  std::string ToSql() const override;
  ExprPtr Clone() const override;

  /// Hash set of the items when every one is a literal (how real engines
  /// evaluate large IN lists). BindExpr builds it after it coerces the
  /// literals, so evaluation only reads it. Null on an unbound node and
  /// when some item is not a literal.
  const std::unordered_set<Value, ValueHash>* ConstantSet() const {
    return constant_set_.has_value() ? &*constant_set_ : nullptr;
  }
  /// Rebuilds ConstantSet from the current items (BindExpr's last step).
  void BuildConstantSet();

 private:
  ExprPtr input_;
  std::vector<ExprPtr> items_;
  bool negated_;
  std::optional<std::unordered_set<Value, ValueHash>> constant_set_;
};

/// N-ary conjunction.
class AndExpr : public Expr {
 public:
  explicit AndExpr(std::vector<ExprPtr> children)
      : Expr(ExprKind::kAnd), children_(std::move(children)) {}

  const std::vector<ExprPtr>& children() const { return children_; }
  std::vector<ExprPtr>& mutable_children() { return children_; }

  std::string ToSql() const override;
  ExprPtr Clone() const override;

 private:
  std::vector<ExprPtr> children_;
};

/// N-ary disjunction. Evaluation short-circuits left to right, which is the
/// behaviour the paper's α parameter (average number of policies checked
/// before one matches) models.
class OrExpr : public Expr {
 public:
  explicit OrExpr(std::vector<ExprPtr> children)
      : Expr(ExprKind::kOr), children_(std::move(children)) {}

  const std::vector<ExprPtr>& children() const { return children_; }
  std::vector<ExprPtr>& mutable_children() { return children_; }

  std::string ToSql() const override;
  ExprPtr Clone() const override;

 private:
  std::vector<ExprPtr> children_;
};

/// NOT child.
class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr child)
      : Expr(ExprKind::kNot), child_(std::move(child)) {}

  const ExprPtr& child() const { return child_; }
  ExprPtr& mutable_child() { return child_; }

  std::string ToSql() const override { return "NOT (" + child_->ToSql() + ")"; }
  ExprPtr Clone() const override {
    return std::make_shared<NotExpr>(child_->Clone());
  }

 private:
  ExprPtr child_;
};

/// Call to a registered UDF, e.g. the Δ operator: delta(guard_id, ...).
class UdfCallExpr : public Expr {
 public:
  UdfCallExpr(std::string name, std::vector<ExprPtr> args)
      : Expr(ExprKind::kUdfCall),
        name_(std::move(name)),
        args_(std::move(args)) {}

  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  std::vector<ExprPtr>& mutable_args() { return args_; }

  std::string ToSql() const override;
  ExprPtr Clone() const override;

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

/// Correlated scalar subquery; stores the SQL text and is evaluated through
/// the engine (EngineHooks). This implements the paper's "derived value"
/// object conditions, e.g. wifiAP = (SELECT W2.wifiAP FROM ... WHERE
/// W2.ts_time = W.ts_time AND W2.owner = 'Prof. Smith').
class SubqueryExpr : public Expr {
 public:
  explicit SubqueryExpr(std::string sql)
      : Expr(ExprKind::kSubquery), sql_(std::move(sql)) {}

  const std::string& sql() const { return sql_; }

  std::string ToSql() const override { return "(" + sql_ + ")"; }
  ExprPtr Clone() const override { return std::make_shared<SubqueryExpr>(sql_); }

 private:
  std::string sql_;
};

// ---------------------------------------------------------------------------
// Construction helpers used heavily by the rewriter and workload generators.
// ---------------------------------------------------------------------------

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumn(const std::string& name);
ExprPtr MakeColumn(const std::string& qualifier, const std::string& name);
ExprPtr MakeCompare(CompareOp op, ExprPtr left, ExprPtr right);
/// column op literal.
ExprPtr MakeColumnCompare(const std::string& column, CompareOp op, Value v);
ExprPtr MakeBetween(const std::string& column, Value lo, Value hi);
/// Conjunction of `children`; returns the single child when there is one,
/// and TRUE (literal) when empty.
ExprPtr MakeAnd(std::vector<ExprPtr> children);
ExprPtr MakeOr(std::vector<ExprPtr> children);
ExprPtr MakeNot(ExprPtr child);

/// Splits nested conjunctions into a flat list of conjuncts.
void FlattenConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

/// Structural equality (used by parser round-trip tests).
bool ExprEquals(const Expr& a, const Expr& b);

/// Binds every ColumnRef in the tree against `schema`. Resolution order:
/// exact match on the full qualified name, then unique match on the bare
/// column name (so predicates written against base tables bind inside
/// aliased scans and join outputs). Also coerces string literals compared
/// with time/date columns and builds each IN list's constant set, so a
/// bound tree is only read by evaluation and may be shared across threads.
Status BindExpr(Expr* expr, const Schema& schema);

}  // namespace sieve

#endif  // SIEVE_EXPR_EXPR_H_

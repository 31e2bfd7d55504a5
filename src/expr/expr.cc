#include "expr/expr.h"

#include "common/string_util.h"

namespace sieve {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Result<CompareOp> ParseCompareOp(const std::string& symbol) {
  if (symbol == "=" || symbol == "==") return CompareOp::kEq;
  if (symbol == "!=" || symbol == "<>") return CompareOp::kNe;
  if (symbol == "<") return CompareOp::kLt;
  if (symbol == "<=") return CompareOp::kLe;
  if (symbol == ">") return CompareOp::kGt;
  if (symbol == ">=") return CompareOp::kGe;
  return Status::InvalidArgument("unknown comparison operator: " + symbol);
}

std::string ComparisonExpr::ToSql() const {
  return left_->ToSql() + " " + CompareOpSymbol(op_) + " " + right_->ToSql();
}

std::string BetweenExpr::ToSql() const {
  return input_->ToSql() + " BETWEEN " + lo_->ToSql() + " AND " + hi_->ToSql();
}

std::string InListExpr::ToSql() const {
  std::vector<std::string> parts;
  parts.reserve(items_.size());
  for (const auto& item : items_) parts.push_back(item->ToSql());
  return input_->ToSql() + (negated_ ? " NOT IN (" : " IN (") +
         Join(parts, ", ") + ")";
}

ExprPtr InListExpr::Clone() const {
  std::vector<ExprPtr> items;
  items.reserve(items_.size());
  for (const auto& item : items_) items.push_back(item->Clone());
  return std::make_shared<InListExpr>(input_->Clone(), std::move(items),
                                      negated_);
}

void InListExpr::BuildConstantSet() {
  constant_set_.emplace();
  for (const auto& item : items_) {
    if (item->kind() != ExprKind::kLiteral) {
      constant_set_.reset();
      return;
    }
    constant_set_->insert(static_cast<const LiteralExpr&>(*item).value());
  }
}

std::string AndExpr::ToSql() const {
  std::vector<std::string> parts;
  parts.reserve(children_.size());
  for (const auto& c : children_) {
    bool paren = c->kind() == ExprKind::kOr;
    parts.push_back(paren ? "(" + c->ToSql() + ")" : c->ToSql());
  }
  return Join(parts, " AND ");
}

ExprPtr AndExpr::Clone() const {
  std::vector<ExprPtr> children;
  children.reserve(children_.size());
  for (const auto& c : children_) children.push_back(c->Clone());
  return std::make_shared<AndExpr>(std::move(children));
}

std::string OrExpr::ToSql() const {
  std::vector<std::string> parts;
  parts.reserve(children_.size());
  for (const auto& c : children_) {
    bool paren = c->kind() == ExprKind::kAnd || c->kind() == ExprKind::kOr;
    parts.push_back(paren ? "(" + c->ToSql() + ")" : c->ToSql());
  }
  return Join(parts, " OR ");
}

ExprPtr OrExpr::Clone() const {
  std::vector<ExprPtr> children;
  children.reserve(children_.size());
  for (const auto& c : children_) children.push_back(c->Clone());
  return std::make_shared<OrExpr>(std::move(children));
}

std::string UdfCallExpr::ToSql() const {
  std::vector<std::string> parts;
  parts.reserve(args_.size());
  for (const auto& a : args_) parts.push_back(a->ToSql());
  return name_ + "(" + Join(parts, ", ") + ")";
}

ExprPtr UdfCallExpr::Clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->Clone());
  return std::make_shared<UdfCallExpr>(name_, std::move(args));
}

ExprPtr MakeLiteral(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }

ExprPtr MakeColumn(const std::string& name) {
  return std::make_shared<ColumnRefExpr>("", name);
}

ExprPtr MakeColumn(const std::string& qualifier, const std::string& name) {
  return std::make_shared<ColumnRefExpr>(qualifier, name);
}

ExprPtr MakeCompare(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ComparisonExpr>(op, std::move(left), std::move(right));
}

ExprPtr MakeColumnCompare(const std::string& column, CompareOp op, Value v) {
  return MakeCompare(op, MakeColumn(column), MakeLiteral(std::move(v)));
}

ExprPtr MakeBetween(const std::string& column, Value lo, Value hi) {
  return std::make_shared<BetweenExpr>(MakeColumn(column),
                                       MakeLiteral(std::move(lo)),
                                       MakeLiteral(std::move(hi)));
}

ExprPtr MakeAnd(std::vector<ExprPtr> children) {
  if (children.empty()) return MakeLiteral(Value::Bool(true));
  if (children.size() == 1) return children[0];
  return std::make_shared<AndExpr>(std::move(children));
}

ExprPtr MakeOr(std::vector<ExprPtr> children) {
  if (children.empty()) return MakeLiteral(Value::Bool(false));
  if (children.size() == 1) return children[0];
  return std::make_shared<OrExpr>(std::move(children));
}

ExprPtr MakeNot(ExprPtr child) {
  return std::make_shared<NotExpr>(std::move(child));
}

void FlattenConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kAnd) {
    for (const auto& c : static_cast<const AndExpr&>(*expr).children()) {
      FlattenConjuncts(c, out);
    }
  } else {
    out->push_back(expr);
  }
}

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(a).value() ==
             static_cast<const LiteralExpr&>(b).value();
    case ExprKind::kColumnRef: {
      const auto& ca = static_cast<const ColumnRefExpr&>(a);
      const auto& cb = static_cast<const ColumnRefExpr&>(b);
      return EqualsIgnoreCase(ca.FullName(), cb.FullName());
    }
    case ExprKind::kParameter: {
      const auto& pa = static_cast<const ParameterExpr&>(a);
      const auto& pb = static_cast<const ParameterExpr&>(b);
      return pa.slot() == pb.slot() && pa.name() == pb.name();
    }
    case ExprKind::kComparison: {
      const auto& ca = static_cast<const ComparisonExpr&>(a);
      const auto& cb = static_cast<const ComparisonExpr&>(b);
      return ca.op() == cb.op() && ExprEquals(*ca.left(), *cb.left()) &&
             ExprEquals(*ca.right(), *cb.right());
    }
    case ExprKind::kBetween: {
      const auto& ba = static_cast<const BetweenExpr&>(a);
      const auto& bb = static_cast<const BetweenExpr&>(b);
      return ExprEquals(*ba.input(), *bb.input()) &&
             ExprEquals(*ba.lo(), *bb.lo()) && ExprEquals(*ba.hi(), *bb.hi());
    }
    case ExprKind::kInList: {
      const auto& ia = static_cast<const InListExpr&>(a);
      const auto& ib = static_cast<const InListExpr&>(b);
      if (ia.negated() != ib.negated()) return false;
      if (ia.items().size() != ib.items().size()) return false;
      if (!ExprEquals(*ia.input(), *ib.input())) return false;
      for (size_t i = 0; i < ia.items().size(); ++i) {
        if (!ExprEquals(*ia.items()[i], *ib.items()[i])) return false;
      }
      return true;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      const auto& children_a =
          a.kind() == ExprKind::kAnd
              ? static_cast<const AndExpr&>(a).children()
              : static_cast<const OrExpr&>(a).children();
      const auto& children_b =
          b.kind() == ExprKind::kAnd
              ? static_cast<const AndExpr&>(b).children()
              : static_cast<const OrExpr&>(b).children();
      if (children_a.size() != children_b.size()) return false;
      for (size_t i = 0; i < children_a.size(); ++i) {
        if (!ExprEquals(*children_a[i], *children_b[i])) return false;
      }
      return true;
    }
    case ExprKind::kNot:
      return ExprEquals(*static_cast<const NotExpr&>(a).child(),
                        *static_cast<const NotExpr&>(b).child());
    case ExprKind::kUdfCall: {
      const auto& ua = static_cast<const UdfCallExpr&>(a);
      const auto& ub = static_cast<const UdfCallExpr&>(b);
      if (!EqualsIgnoreCase(ua.name(), ub.name())) return false;
      if (ua.args().size() != ub.args().size()) return false;
      for (size_t i = 0; i < ua.args().size(); ++i) {
        if (!ExprEquals(*ua.args()[i], *ub.args()[i])) return false;
      }
      return true;
    }
    case ExprKind::kSubquery:
      return static_cast<const SubqueryExpr&>(a).sql() ==
             static_cast<const SubqueryExpr&>(b).sql();
  }
  return false;
}

namespace {

Status BindColumnRef(ColumnRefExpr* ref, const Schema& schema) {
  // Exact match on the fully qualified rendering first.
  int exact = schema.FindColumn(ref->FullName());
  if (exact >= 0) {
    ref->set_bound_index(exact);
    return Status::OK();
  }
  // Unique suffix match on the bare name ("owner" matches "W.owner").
  int found = -1;
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    const std::string& col = schema.column(i).name;
    bool match = EqualsIgnoreCase(col, ref->name());
    if (!match) {
      size_t dot = col.rfind('.');
      if (dot != std::string::npos) {
        match = EqualsIgnoreCase(col.substr(dot + 1), ref->name());
        // When the ref is qualified, the qualifier must match too.
        if (match && !ref->qualifier().empty()) {
          match = EqualsIgnoreCase(col.substr(0, dot), ref->qualifier());
        }
      } else if (!ref->qualifier().empty()) {
        match = false;
      }
    }
    if (match) {
      if (found >= 0) {
        return Status::BindError("ambiguous column reference: " +
                                 ref->FullName());
      }
      found = static_cast<int>(i);
    }
  }
  if (found < 0) {
    return Status::BindError("unresolved column reference: " + ref->FullName() +
                             " against schema " + schema.ToString());
  }
  ref->set_bound_index(found);
  return Status::OK();
}

// If `anchor` is a bound column of time/date type and `maybe_literal` is a
// string literal, re-parse the literal into the column's type so value
// comparisons stay within one type family.
void CoerceLiteralToColumnType(const Schema& schema, const Expr& anchor,
                               Expr* maybe_literal) {
  if (anchor.kind() != ExprKind::kColumnRef ||
      maybe_literal->kind() != ExprKind::kLiteral) {
    return;
  }
  const auto& ref = static_cast<const ColumnRefExpr&>(anchor);
  if (ref.bound_index() < 0) return;
  DataType col_type =
      schema.column(static_cast<size_t>(ref.bound_index())).type;
  auto* lit = static_cast<LiteralExpr*>(maybe_literal);
  if (lit->value().type() != DataType::kString) return;
  if (col_type == DataType::kTime) {
    auto parsed = Value::ParseTime(lit->value().AsString());
    if (parsed.ok()) lit->set_value(std::move(parsed).value());
  } else if (col_type == DataType::kDate) {
    auto parsed = Value::ParseDate(lit->value().AsString());
    if (parsed.ok()) lit->set_value(std::move(parsed).value());
  }
}

}  // namespace

Status BindExpr(Expr* expr, const Schema& schema) {
  switch (expr->kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kSubquery:
    case ExprKind::kParameter:  // nothing to resolve; substituted at execute
      return Status::OK();
    case ExprKind::kColumnRef:
      return BindColumnRef(static_cast<ColumnRefExpr*>(expr), schema);
    case ExprKind::kComparison: {
      auto* c = static_cast<ComparisonExpr*>(expr);
      SIEVE_RETURN_IF_ERROR(BindExpr(c->left().get(), schema));
      SIEVE_RETURN_IF_ERROR(BindExpr(c->right().get(), schema));
      CoerceLiteralToColumnType(schema, *c->left(), c->right().get());
      CoerceLiteralToColumnType(schema, *c->right(), c->left().get());
      return Status::OK();
    }
    case ExprKind::kBetween: {
      auto* b = static_cast<BetweenExpr*>(expr);
      SIEVE_RETURN_IF_ERROR(BindExpr(b->input().get(), schema));
      SIEVE_RETURN_IF_ERROR(BindExpr(b->lo().get(), schema));
      SIEVE_RETURN_IF_ERROR(BindExpr(b->hi().get(), schema));
      CoerceLiteralToColumnType(schema, *b->input(), b->lo().get());
      CoerceLiteralToColumnType(schema, *b->input(), b->hi().get());
      return Status::OK();
    }
    case ExprKind::kInList: {
      auto* in = static_cast<InListExpr*>(expr);
      SIEVE_RETURN_IF_ERROR(BindExpr(in->input().get(), schema));
      for (const auto& item : in->items()) {
        SIEVE_RETURN_IF_ERROR(BindExpr(item.get(), schema));
        CoerceLiteralToColumnType(schema, *in->input(), item.get());
      }
      in->BuildConstantSet();
      return Status::OK();
    }
    case ExprKind::kAnd:
      for (const auto& c : static_cast<AndExpr*>(expr)->children()) {
        SIEVE_RETURN_IF_ERROR(BindExpr(c.get(), schema));
      }
      return Status::OK();
    case ExprKind::kOr:
      for (const auto& c : static_cast<OrExpr*>(expr)->children()) {
        SIEVE_RETURN_IF_ERROR(BindExpr(c.get(), schema));
      }
      return Status::OK();
    case ExprKind::kNot:
      return BindExpr(static_cast<NotExpr*>(expr)->child().get(), schema);
    case ExprKind::kUdfCall:
      for (const auto& a : static_cast<UdfCallExpr*>(expr)->args()) {
        SIEVE_RETURN_IF_ERROR(BindExpr(a.get(), schema));
      }
      return Status::OK();
  }
  return Status::Internal("unhandled expression kind in BindExpr");
}

}  // namespace sieve
